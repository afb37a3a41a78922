package greednet

import (
	"math/rand"

	"greednet/internal/alloc"
	"greednet/internal/des"
	"greednet/internal/game"
	"greednet/internal/mm1"
	"greednet/internal/randdist"
	"greednet/internal/selfish"
)

// This file extends the public facade with the general-service (M/G/1)
// layer, the closed-loop selfish simulation, and the coalition analysis.

// ---- Server models (footnote 5) -----------------------------------------

// ServerModel abstracts a station's total-congestion curve L(x).
type ServerModel = mm1.ServerModel

// MM1Model is the exponential-service station (the paper's base model).
type MM1Model = mm1.MM1

// MG1Model is the Pollaczek–Khinchine station with chosen service CV².
type MG1Model = mm1.MG1

// SerialAllocation is Fair Share generalized to an arbitrary server model.
type SerialAllocation = alloc.SerialG

// ProportionalAllocation is the FIFO-like allocation over an arbitrary
// server model.
type ProportionalAllocation = alloc.ProportionalG

// TablePriorityAllocation is the exact allocation of the paper's Table-1
// priority construction under general service (equals Fair Share at CV²=1).
type TablePriorityAllocation = alloc.TablePriorityG

// ---- General-service simulation -------------------------------------------

// ServiceDist is a unit-mean service-time distribution.
type ServiceDist = randdist.Dist

// ServiceFromCV2 returns the natural unit-mean distribution with the given
// squared coefficient of variation (deterministic, exponential, or gamma).
func ServiceFromCV2(cv2 float64) ServiceDist { return randdist.FromCV2(cv2) }

// GSimConfig configures the general-service simulator.
type GSimConfig = des.GConfig

// Classifier assigns priority classes to arriving packets.
type Classifier = des.Classifier

// Classifiers for SimulateG.
type (
	// SingleClassifier is plain M/G/1 FIFO.
	SingleClassifier = des.SingleClass
	// SerialClassifier is the Table-1 thinning splitter.
	SerialClassifier = des.SerialClass
	// RankClassifier is strict priority by ascending rate.
	RankClassifier = des.RankClass
)

// SimulateG runs the general-service preemptive-priority simulator.
func SimulateG(cfg GSimConfig) (SimResult, error) { return des.RunG(cfg) }

// ---- Packet scheduling (non-preemptive) ------------------------------------

// Scheduler picks the next packet to transmit whole (non-preemptive).
type Scheduler = des.Scheduler

// FairQueueing is the Demers–Keshav–Shenker Fair Queueing scheduler
// (virtual-time finish tags), reference [3] of the paper.
type FairQueueing = des.FQSched

// FCFSScheduler is plain first-come-first-served transmission.
type FCFSScheduler = des.FCFSSched

// SchedSimConfig configures the non-preemptive packet simulator.
type SchedSimConfig = des.SchedConfig

// SimulateSched runs the non-preemptive packet scheduler simulator.
func SimulateSched(cfg SchedSimConfig) (SimResult, error) { return des.RunSched(cfg) }

// ---- Closed-loop selfish users ----------------------------------------------

// SelfishOptions configures a closed-loop run of measurement-driven users.
type SelfishOptions = selfish.Options

// SelfishResult reports a closed-loop run.
type SelfishResult = selfish.Result

// DisciplineFactory builds a fresh simulator discipline per epoch.  A
// step's two probe epochs run concurrently, so it may be called from two
// goroutines at once.
type DisciplineFactory = selfish.DisciplineFactory

// RunSelfish simulates users that hill-climb on congestion measured in the
// discrete-event simulator (§2.2's knob-turning users).
func RunSelfish(factory DisciplineFactory, us Profile, r0 []Rate, opt SelfishOptions) SelfishResult {
	return selfish.Run(factory, us, r0, opt)
}

// ---- Coalitions (footnote 14) --------------------------------------------------

// CoalitionDeviation is a joint deviation improving every coalition member.
type CoalitionDeviation = game.CoalitionDeviation

// FindCoalitionDeviation searches for an improving joint deviation by the
// given coalition from the point r.
func FindCoalitionDeviation(a Allocation, us Profile, r []Rate, coalition []int, rng *rand.Rand, samples int) *CoalitionDeviation {
	return game.FindCoalitionDeviation(a, us, r, coalition, rng, samples)
}

// StrongEquilibriumCheck searches every coalition for an improving joint
// deviation; nil means r resisted all sampled coalitional manipulation.
func StrongEquilibriumCheck(a Allocation, us Profile, r []Rate, rng *rand.Rand, samplesPerCoalition int) *CoalitionDeviation {
	return game.StrongEquilibriumCheck(a, us, r, rng, samplesPerCoalition)
}
