package des

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"greednet/internal/randdist"
)

// One SHA-256 per engine over every result in that engine's part of
// the TestEngineDigest matrix.  An intended numeric change to an engine
// re-pins only its own constant, in the same commit, with the reason in
// the commit message; any other change that moves a constant has changed
// an answer.
const (
	digestRun       = "4e3bc44b157ca25313ed6eae58061cbfb6b5d2e79af8a610ffc4eb2e3f4e0fa8"
	digestRunG      = "3a75c6f8e6ecc7ba50cfe67cace9575f8febd2da89429ad782dabd4774b8eb89"
	digestRunSched  = "ba7fdb1e5ac859c7757534ccff911fa54f809d7245fc49809a621c46e41e3754"
	digestRunTandem = "d8434d60e8d2e99a8fb4e2a75f8cc823a2e59de15e5ec7a8b414fb4569d71c0c"
)

// appendF64s appends xs as little-endian Float64bits.
func appendF64s(buf []byte, xs ...float64) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// appendDigestResult appends every Result field to buf.
func appendDigestResult(buf []byte, res Result) []byte {
	buf = appendF64s(buf, res.AvgQueue...)
	buf = appendF64s(buf, res.QueueCI95...)
	buf = appendF64s(buf, res.AvgDelay...)
	buf = appendF64s(buf, res.Throughput...)
	buf = appendF64s(buf, res.TotalAvgQueue, res.Duration)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(res.Arrivals))
	return binary.LittleEndian.AppendUint64(buf, uint64(res.Departures))
}

// appendDigestTandem appends every TandemResult field to buf.
func appendDigestTandem(buf []byte, res TandemResult) []byte {
	buf = appendF64s(buf, res.QueueA...)
	buf = appendF64s(buf, res.QueueB...)
	buf = appendF64s(buf, res.TotalQueue...)
	buf = appendF64s(buf, res.EndToEndDelay...)
	for _, d := range res.Departures {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	}
	return buf
}

// TestEngineDigest pins all four DES engines' answers bit for bit, one
// digest per engine: Run over its seven disciplines, RunG over three
// classifiers and three service shapes, RunSched over FCFS and Fair
// Queueing and the same services, and RunTandemCtx under FIFO and Fair
// Share, each over the differential rate sets plus a four-source set and
// three seeds.  It needs no frozen engine, only the recorded digests.
// It runs on amd64 only: other architectures may fuse multiply-adds and
// legitimately round differently.
func TestEngineDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned digests are amd64 arithmetic; " + runtime.GOARCH + " may fuse multiply-adds")
	}
	const horizon = 1200
	rateSets := append(diffRates(), []float64{0.1, 0.15, 0.2, 0.25})
	seeds := []int64{1, 2, 3}
	services := []randdist.Dist{randdist.Exponential{}, randdist.Deterministic{}, randdist.Gamma{K: 2}}
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	// pin hashes one engine's results and compares them with its digest.
	pin := func(engine, want string, buf []byte) {
		t.Run(engine, func(t *testing.T) {
			sum := sha256.Sum256(buf)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s digest = %s, want %s", engine, got, want)
			}
		})
	}

	discs := []func() Discipline{
		func() Discipline { return &FIFO{} },
		func() Discipline { return &LIFOPreemptive{} },
		func() Discipline { return &ProcessorSharing{} },
		func() Discipline { return &HOLProcessorSharing{} },
		func() Discipline { return &CyclicPolling{} },
		func() Discipline { return &RatePriority{} },
		func() Discipline { return &FairShareSplitter{} },
	}
	var buf []byte
	for _, mk := range discs {
		for _, rates := range rateSets {
			for _, seed := range seeds {
				res, err := Run(Config{Rates: rates, Discipline: mk(), Horizon: horizon, Seed: seed})
				check("Run", err)
				buf = appendDigestResult(buf, res)
			}
		}
	}
	pin("Run", digestRun, buf)

	classifiers := []func() Classifier{
		func() Classifier { return SingleClass{} },
		func() Classifier { return &RankClass{} },
		func() Classifier { return &SerialClass{} },
	}
	buf = nil
	for _, mk := range classifiers {
		for _, svc := range services {
			for _, rates := range rateSets {
				for _, seed := range seeds {
					res, err := RunG(GConfig{Rates: rates, Service: svc, Classify: mk(), Horizon: horizon, Seed: seed})
					check("RunG", err)
					buf = appendDigestResult(buf, res)
				}
			}
		}
	}
	pin("RunG", digestRunG, buf)

	scheds := []func() Scheduler{
		func() Scheduler { return &FCFSSched{} },
		func() Scheduler { return &FQSched{} },
	}
	buf = nil
	for _, mk := range scheds {
		for _, svc := range services {
			for _, rates := range rateSets {
				for _, seed := range seeds {
					res, err := RunSched(SchedConfig{Rates: rates, Service: svc, Sched: mk(), Horizon: horizon, Seed: seed})
					check("RunSched", err)
					buf = appendDigestResult(buf, res)
				}
			}
		}
	}
	pin("RunSched", digestRunSched, buf)

	shapes := []TandemConfig{
		{LongRates: []float64{0.2}, CrossA: []float64{0.3}, CrossB: []float64{0.25}},
		{LongRates: []float64{0.1, 0.15}, CrossA: []float64{0.2, 0.1}, CrossB: []float64{0.3}},
		{LongRates: []float64{0.4}},
	}
	buf = nil
	for _, mk := range []func() Discipline{discs[0], discs[6]} {
		for _, shape := range shapes {
			for _, seed := range seeds {
				cfg := shape
				cfg.NewDisc = mk
				cfg.Horizon = horizon
				cfg.Seed = seed
				res, err := RunTandemCtx(context.Background(), cfg)
				check("RunTandem", err)
				buf = appendDigestTandem(buf, res)
			}
		}
	}
	pin("RunTandem", digestRunTandem, buf)
}
