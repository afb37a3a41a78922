package des

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"testing"

	"greednet/internal/randdist"
	"greednet/internal/stats"
)

// Per-source heap references for the two-time engines.  RunG and
// RunSched draw one superposed Poisson stream of rate Σλ and give each
// arrival to source i with probability λ_i/Σλ.  heapRef draws the same
// model the way the engines did before: one pending exponential arrival
// per source plus the in-service completion, all in a container/heap
// event set, with a preempted completion taken out of the heap.  Its
// sample path is independent of the engine's (its own seed, its own draw
// order), so the engines must agree with it in law, not bit for bit.

// The agreement bounds.  Over the tests' 240 configurations, and the
// same with the seeds shifted by 1000, 2000 and 3000, at this horizon
// the engines' distance from the reference, per user, had a 95th percentile of 0.97 combined 95% half-widths for
// the mean queue (the batch-means intervals are calibrated) and 1.95
// standard deviations for the throughput, with maxima of 2.3 and 4.2;
// one check runs per user, so the bounds sit far in the tails.  They
// catch a wrong source pick, preemptive repeat in place of resume and
// inverted priorities, not a 2% rate error: the analytic tests in
// gsim_test.go and sched_test.go run the long horizons that takes.
const (
	heapQueueTol = 3 // combined 95% half-widths of the two mean queues
	heapRateTol  = 5 // standard deviations of the throughput difference
	heapHorizon  = 5000
)

// heapEvent is a pending event of heapRef: a source's next arrival, or
// the completion (user −1).
type heapEvent struct {
	t    float64
	user int
}

type heapEvents []heapEvent

func (h heapEvents) Len() int           { return len(h) }
func (h heapEvents) Less(i, j int) bool { return h[i].t < h[j].t }
func (h heapEvents) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *heapEvents) Push(x any)        { *h = append(*h, x.(heapEvent)) }
func (h *heapEvents) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// heapRef runs the per-source reference.  With a classifier it is RunG's
// station (preemptive-resume priority classes, FIFO within a class);
// with cls nil, sched transmits whole packets as in RunSched.  Horizon,
// warmup and batches default as in the engines.
func heapRef(rates []float64, svc randdist.Dist, cls Classifier, sched Scheduler, horizon float64, seed int64) (Result, error) {
	n := len(rates)
	warmup, batches := 0.0, 0
	if _, err := checkConfig(rates, &horizon, &warmup, &batches); err != nil {
		return Result{}, err
	}
	rng := randdist.NewRand(seed)
	var classes [][]*gpacket
	if cls != nil {
		cls.Reset(rates, rng)
		classes = make([][]*gpacket, cls.NumClasses())
	} else {
		sched.Reset(rates)
	}

	end := warmup + horizon
	lq := newLazyQueues(n, batches, warmup, end, horizon/float64(batches))
	var totalAvg stats.TimeAverage
	delaySum := make([]float64, n)
	departed := make([]int64, n)
	var res Result

	var events heapEvents
	for i, r := range rates {
		heap.Push(&events, heapEvent{t: rng.ExpFloat64() / r, user: i})
	}
	var serving *gpacket
	start := func(p *gpacket, now float64) {
		serving = p
		heap.Push(&events, heapEvent{t: now + p.remaining, user: -1})
	}
	inSystem, prev := 0, 0.0
	for {
		ev := heap.Pop(&events).(heapEvent)
		now := min(ev.t, end)
		if now > warmup && now > prev {
			totalAvg.Accumulate(float64(inSystem), now-max(prev, warmup))
		}
		prev = now
		if ev.t > end {
			break
		}
		if u := ev.user; u >= 0 {
			heap.Push(&events, heapEvent{t: ev.t + rng.ExpFloat64()/rates[u], user: u})
			p := &gpacket{user: u, arrive: ev.t}
			if cls != nil {
				p.class = cls.Classify(u)
			}
			p.remaining = svc.Sample(rng)
			lq.bump(u, ev.t, 1)
			inSystem++
			if ev.t >= warmup {
				res.Arrivals++
			}
			switch {
			case serving == nil:
				start(p, ev.t)
			case cls == nil:
				sched.Enqueue(p, ev.t)
			case p.class < serving.class:
				// Preempt: take the completion out of the heap, bank the
				// rest of the work and resume it first in its class.
				i := slices.IndexFunc(events, func(e heapEvent) bool { return e.user < 0 })
				serving.remaining = heap.Remove(&events, i).(heapEvent).t - ev.t
				classes[serving.class] = append([]*gpacket{serving}, classes[serving.class]...)
				start(p, ev.t)
			default:
				classes[p.class] = append(classes[p.class], p)
			}
			continue
		}
		p := serving
		lq.bump(p.user, ev.t, -1)
		inSystem--
		if ev.t >= warmup {
			res.Departures++
			departed[p.user]++
			delaySum[p.user] += ev.t - p.arrive
		}
		serving = nil
		if cls == nil {
			if sched.Len() > 0 {
				start(sched.Dequeue(ev.t), ev.t)
			}
			continue
		}
		for c, q := range classes {
			if len(q) > 0 {
				classes[c] = q[1:]
				start(q[0], ev.t)
				break
			}
		}
	}
	return finishResult(res, lq, &totalAvg, delaySum, departed, horizon), nil
}

// sameLaw checks the engine's result got against its per-source
// reference want, both run on rates over heapHorizon.
func sameLaw(t *testing.T, name string, rates []float64, got, want Result) {
	t.Helper()
	for i, r := range rates {
		dq := math.Abs(got.AvgQueue[i] - want.AvgQueue[i])
		if ci := math.Hypot(got.QueueCI95[i], want.QueueCI95[i]); !(dq <= heapQueueTol*ci) {
			t.Errorf("%s user %d (rate %g): mean queue %.4g ± %.2g, heap %.4g ± %.2g",
				name, i, r, got.AvgQueue[i], got.QueueCI95[i], want.AvgQueue[i], want.QueueCI95[i])
		}
		// Departures over a long run count like the Poisson arrivals:
		// variance λ·H each.  The 1/H absorbs the count's granularity.
		dx := math.Abs(got.Throughput[i] - want.Throughput[i])
		if sd := math.Sqrt(2 * r / heapHorizon); !(dx <= heapRateTol*sd+1/heapHorizon) {
			t.Errorf("%s user %d (rate %g): throughput %.4g, heap %.4g (sd of the difference %.2g)",
				name, i, r, got.Throughput[i], want.Throughput[i], sd)
		}
	}
}

// heapSeed is the reference's seed for an engine run on seed: a
// different stream, so the two sample paths are independent.
func heapSeed(seed int64) int64 { return seed + 1_000_003 }

// TestGMatchesHeap checks the superposed general-service engine against
// the per-source heap reference across classifiers (exercising
// preemptive resume) and the analytic tests' service shapes, on
// diffRates' populations.
func TestGMatchesHeap(t *testing.T) {
	classifiers := []func() Classifier{
		func() Classifier { return SingleClass{} },
		func() Classifier { return &RankClass{} },
		func() Classifier { return &SerialClass{} },
	}
	for _, mk := range classifiers {
		for _, cv2 := range serviceCV2s {
			svc := randdist.FromCV2(cv2)
			for _, rates := range diffRates() {
				for _, seed := range diffSeeds {
					t.Run("", func(t *testing.T) {
						t.Parallel()
						name := fmt.Sprintf("%s/%s n=%d seed %d", mk().Name(), svc.Name(), len(rates), seed)
						got, err := RunG(GConfig{Rates: rates, Service: svc, Classify: mk(), Horizon: heapHorizon, Seed: seed})
						if err != nil {
							t.Fatalf("%s: RunG: %v", name, err)
						}
						want, err := heapRef(rates, svc, mk(), nil, heapHorizon, heapSeed(seed))
						if err != nil {
							t.Fatalf("%s: heapRef: %v", name, err)
						}
						sameLaw(t, name, rates, got, want)
					})
				}
			}
		}
	}
}

// TestSchedMatchesHeap checks the superposed scheduling engine against
// the per-source heap reference for both schedulers and the analytic
// tests' service shapes.
func TestSchedMatchesHeap(t *testing.T) {
	scheds := []func() Scheduler{
		func() Scheduler { return &FCFSSched{} },
		func() Scheduler { return &FQSched{} },
	}
	for _, mk := range scheds {
		for _, cv2 := range serviceCV2s {
			svc := randdist.FromCV2(cv2)
			for _, rates := range diffRates() {
				for _, seed := range diffSeeds {
					t.Run("", func(t *testing.T) {
						t.Parallel()
						name := fmt.Sprintf("%s/%s n=%d seed %d", mk().Name(), svc.Name(), len(rates), seed)
						got, err := RunSched(SchedConfig{Rates: rates, Service: svc, Sched: mk(), Horizon: heapHorizon, Seed: seed})
						if err != nil {
							t.Fatalf("%s: RunSched: %v", name, err)
						}
						want, err := heapRef(rates, svc, nil, mk(), heapHorizon, heapSeed(seed))
						if err != nil {
							t.Fatalf("%s: heapRef: %v", name, err)
						}
						sameLaw(t, name, rates, got, want)
					})
				}
			}
		}
	}
}
