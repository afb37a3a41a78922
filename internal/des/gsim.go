package des

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"greednet/internal/des/calq"
	"greednet/internal/randdist"
	"greednet/internal/stats"
)

// The general-service engine: Poisson arrivals, arbitrary unit-mean
// service-time distribution, and preemptive-resume strict priority across
// classes (FIFO within a class).  With a single class this is plain M/G/1
// FIFO; with the Table-1 thinning classifier it realizes the generalized
// serial (Fair Share) allocation; with rank classes it is HOL priority.
// Unlike the memoryless engine in des.go, service completions must be
// scheduled explicitly and preempted work tracked.
//
// Event management runs on the calendar queue in internal/des/calq (O(1)
// amortized per event, no boxing); the frozen container/heap engine it
// replaced survives in heapref.go as the differential baseline.  Variates
// come through internal/randdist batches whose block size is 1 unless the
// run's draw order is provably pure (see seedArrivals and streamfree.go),
// so every seeded stream is byte-identical to the historical engine.

// Classifier assigns a priority class (0 = highest) to an arriving packet.
type Classifier interface {
	// Name identifies the classifier.
	Name() string
	// Reset prepares for a run; rates are the per-user Poisson rates.
	Reset(rates []float64, rng *rand.Rand)
	// Classify returns the class for a packet from the given user, in
	// [0, NumClasses()).
	Classify(user int) int
	// NumClasses is the number of priority classes.
	NumClasses() int
}

// SingleClass puts every packet in one class: plain M/G/1 FIFO.
type SingleClass struct{}

// Name implements Classifier.
func (SingleClass) Name() string { return "fifo" }

// Reset implements Classifier.
func (SingleClass) Reset(rates []float64, rng *rand.Rand) {}

// Classify implements Classifier.
func (SingleClass) Classify(user int) int { return 0 }

// NumClasses implements Classifier.
func (SingleClass) NumClasses() int { return 1 }

// RankClass gives the k-th smallest-rate user priority class k: HOL strict
// priority keyed to the rate order.
type RankClass struct {
	rank []int
}

// Name implements Classifier.
func (rc *RankClass) Name() string { return "rate-priority" }

// Reset implements Classifier.
func (rc *RankClass) Reset(rates []float64, rng *rand.Rand) {
	n := len(rates)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	rc.rank = make([]int, n)
	for rank, u := range idx {
		rc.rank[u] = rank
	}
}

// Classify implements Classifier.
func (rc *RankClass) Classify(user int) int { return rc.rank[user] }

// NumClasses implements Classifier.
func (rc *RankClass) NumClasses() int { return len(rc.rank) }

// SerialClass is the Table-1 thinning classifier: the rank-k user's
// packets are spread over classes 0..k with probabilities proportional to
// the sorted-rate increments, realizing the serial (Fair Share) allocation
// for any service distribution.
type SerialClass struct {
	cdf [][]float64
	rng *rand.Rand
	n   int
}

// Name implements Classifier.
func (sc *SerialClass) Name() string { return "serial-splitter" }

// Reset implements Classifier.
func (sc *SerialClass) Reset(rates []float64, rng *rand.Rand) {
	n := len(rates)
	sc.n = n
	sc.rng = rng
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	sorted := make([]float64, n)
	rank := make([]int, n)
	for k, u := range idx {
		sorted[k] = rates[u]
		rank[u] = k
	}
	sc.cdf = make([][]float64, n)
	for u := 0; u < n; u++ {
		k := rank[u]
		cdf := make([]float64, k+1)
		prev, acc := 0.0, 0.0
		for m := 0; m <= k; m++ {
			acc += sorted[m] - prev
			prev = sorted[m]
			cdf[m] = acc / sorted[k]
		}
		cdf[k] = 1
		sc.cdf[u] = cdf
	}
}

// Classify implements Classifier.
func (sc *SerialClass) Classify(user int) int {
	cdf := sc.cdf[user]
	x := sc.rng.Float64()
	cls := sort.SearchFloat64s(cdf, x)
	if cls >= len(cdf) {
		cls = len(cdf) - 1
	}
	return cls
}

// NumClasses implements Classifier.
func (sc *SerialClass) NumClasses() int { return sc.n }

// GConfig parameterizes a general-service run.
type GConfig struct {
	// Rates are the per-user Poisson rates (Σ < 1 for stability).
	Rates []float64
	// Service is the unit-mean service-time distribution; default
	// exponential.
	Service randdist.Dist
	// Classify maps packets to preemptive priority classes; default
	// SingleClass (FIFO).
	Classify Classifier
	// Horizon, Warmup, Seed, Batches behave as in Config.
	Horizon, Warmup float64
	Seed            int64
	Batches         int
}

// gpacket is one job in the general-service engine.
type gpacket struct {
	user      int
	class     int
	arrive    float64
	remaining float64
}

// gpacketPool recycles gpackets across departures and arrivals so the
// steady-state event loop allocates nothing.  get overwrites every field
// at the call site; put is deliberately unannotated (its append may grow
// the free list) and is amortized against the arrival that created the
// packet.
type gpacketPool struct {
	free []*gpacket
}

func (pl *gpacketPool) get() *gpacket {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		return p
	}
	return new(gpacket)
}

func (pl *gpacketPool) put(p *gpacket) { pl.free = append(pl.free, p) }

// deque is a double-ended packet queue (resumed packets re-enter at the
// front to preserve preemptive-resume FIFO order), backed by a
// power-of-two ring so both ends are O(1) and, once the ring has reached
// its high-water size, allocation-free — the old slice deque allocated a
// fresh backing array on every pushFront.
type deque struct {
	buf  []*gpacket
	head int // ring index of the front element
	n    int
}

// grow doubles the ring; unannotated, amortized against the pushes that
// filled it.
func (d *deque) grow() {
	c := 2 * len(d.buf)
	if c == 0 {
		c = 8
	}
	nb := make([]*gpacket, c)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = nb
	d.head = 0
}

func (d *deque) pushBack(p *gpacket) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = p
	d.n++
}

func (d *deque) pushFront(p *gpacket) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = p
	d.n++
}

func (d *deque) popFront() *gpacket {
	p := d.buf[d.head]
	d.buf[d.head] = nil // release the slot: no stale packet outlives its queue stay
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return p
}

func (d *deque) len() int { return d.n }

// seedArrivals initializes the calendar and schedules each source's first
// arrival.  The first-arrival variates prefetch in one FillExp call
// (byte-identical to the historical per-source draw loop).
//
// The bucket width is derived from the event RATE, not the pending-event
// span: the engines process ≈ 2·Σλ events per unit time (arrivals at
// rate Σλ, completions at rate busy ≈ Σλ for the unit-rate server), so
// 1/(2·Σλ) keeps about one event per bucket near the cursor and about
// one bucket step per dequeue.  Pending arrivals are exponentially
// spread, so a span-derived width would be stretched by the tail —
// piling width·density events into every cursor bucket and making the
// window slide through virgin buckets (first-touch growth allocations)
// for the whole run.  With the rate-derived width the tail simply wraps
// into later calendar years, which the windowed scan is built for, and
// after one year every bucket's capacity is recycled: the steady state
// allocates nothing.  The population never exceeds len(rates)+1 events
// (one pending arrival per source plus one completion), so no rehash
// ever fires to re-derive the width mid-run.  At the paper's scale of a
// few sources that bound is within calq's flat cap, so the queue keeps
// its events in one scanned slice and never uses the width at all.
func seedArrivals(events *calq.Queue, rng *rand.Rand, rates []float64) {
	n := len(rates)
	arr := make([]float64, n)
	randdist.FillExp(rng, arr)
	total := 0.0
	for _, r := range rates {
		total += r
	}
	events.Init(n+1, 1/(2*total))
	for i, r := range rates {
		events.Enqueue(calq.Event{T: arr[i] / r, User: int32(i), Arr: true})
	}
}

// RunG simulates the general-service preemptive-priority station.
func RunG(cfg GConfig) (Result, error) {
	return RunGCtx(context.Background(), cfg)
}

// RunGCtx is RunG under a context; see RunCtx for the cancellation
// contract (typed error, no partial statistics).
func RunGCtx(ctx context.Context, cfg GConfig) (Result, error) {
	n := len(cfg.Rates)
	if n == 0 {
		return Result{}, ErrBadConfig
	}
	total := 0.0
	for _, r := range cfg.Rates {
		if r <= 0 || math.IsNaN(r) {
			return Result{}, ErrBadConfig
		}
		total += r
	}
	if total >= 1 {
		return Result{}, ErrBadConfig
	}
	if !validSpan(cfg.Horizon) || !validSpan(cfg.Warmup) {
		return Result{}, ErrBadConfig
	}
	if cfg.Service == nil {
		cfg.Service = randdist.Exponential{}
	}
	if cfg.Classify == nil {
		cfg.Classify = SingleClass{}
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 2e5
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 0.05 * cfg.Horizon
	}
	if cfg.Batches <= 0 {
		cfg.Batches = 20
	}

	rng := randdist.NewRand(cfg.Seed)
	cfg.Classify.Reset(cfg.Rates, rng)
	classes := make([]deque, cfg.Classify.NumClasses())

	end := cfg.Warmup + cfg.Horizon
	batchLen := cfg.Horizon / float64(cfg.Batches)

	lq := newLazyQueues(n, cfg.Batches, cfg.Warmup, end, batchLen)
	var totalAvg stats.TimeAverage
	delaySum := make([]float64, n)
	departed := make([]int64, n)
	var res Result
	res.AvgQueue = make([]float64, n)
	res.QueueCI95 = make([]float64, n)
	res.AvgDelay = make([]float64, n)
	res.Throughput = make([]float64, n)

	// After seeding, every rng draw is an inter-arrival or service
	// ExpFloat64 unless the classifier consumes the stream too; when the
	// order is provably pure-exponential the batch prefetches full blocks
	// and service draws come from the same batch, otherwise block size 1
	// reproduces the unbatched stream draw for draw.
	pureExp := randdist.IsExponential(cfg.Service) && streamFree(cfg.Classify)
	var eb randdist.ExpBatch
	eb.Init(rng, randdist.BlockSize(pureExp))

	var events calq.Queue
	seedArrivals(&events, rng, cfg.Rates)

	var pool gpacketPool
	var serving *gpacket
	servingToken := 0
	tokenSeq := 0
	compT := 0.0       // scheduled completion time of the serving packet
	var compSeq uint64 // its calendar stamp, for O(1) preemption removal
	inSystem := 0
	prev := 0.0

	startService := func(p *gpacket, now float64) {
		serving = p
		tokenSeq++
		servingToken = tokenSeq
		compT = now + p.remaining
		compSeq = events.Enqueue(calq.Event{T: compT, Token: servingToken})
	}
	nextFromQueues := func(now float64) {
		serving = nil
		for c := range classes {
			if classes[c].len() > 0 {
				startService(classes[c].popFront(), now)
				return
			}
		}
	}

	gate := ctxGate{ctx: ctx}
	for events.Len() > 0 {
		if err := gate.Err(); err != nil {
			return Result{}, err
		}
		ev, _ := events.DequeueMin()
		now := ev.T
		if now > end {
			now = end
		}
		// Accumulate the O(1) total-queue average over [prev, now); the
		// per-user integrals advance lazily at count changes (lq.bump).
		if now > cfg.Warmup && now > prev {
			lo := max(prev, cfg.Warmup)
			span := now - lo
			if span > 0 {
				totalAvg.Accumulate(float64(inSystem), span)
			}
		}
		prev = now
		if ev.T > end {
			break
		}
		if ev.Arr {
			u := int(ev.User)
			events.Enqueue(calq.Event{T: ev.T + eb.Next()/cfg.Rates[u], User: ev.User, Arr: true})
			p := pool.get()
			p.user = u
			p.class = cfg.Classify.Classify(u)
			p.arrive = ev.T
			if pureExp {
				p.remaining = eb.Next()
			} else {
				p.remaining = cfg.Service.Sample(rng)
			}
			lq.bump(u, ev.T, 1)
			inSystem++
			if ev.T >= cfg.Warmup {
				res.Arrivals++
			}
			switch {
			case serving == nil:
				startService(p, ev.T)
			case p.class < serving.class:
				// Preempt: bank the remaining work and resume later.  The
				// engine tracks the pending completion's (time, stamp), so
				// canceling it is a direct calendar removal — the old heap
				// engine scanned the whole event array here.
				preempted := serving
				rem := compT - ev.T
				if rem < 0 {
					rem = 0
				}
				preempted.remaining = rem
				events.Remove(compT, compSeq)
				servingToken = -1 // invalidate
				classes[preempted.class].pushFront(preempted)
				startService(p, ev.T)
			default:
				classes[p.class].pushBack(p)
			}
		} else {
			if ev.Token != servingToken || serving == nil {
				continue // stale completion from a preempted service
			}
			p := serving
			lq.bump(p.user, ev.T, -1)
			inSystem--
			if ev.T >= cfg.Warmup {
				res.Departures++
				departed[p.user]++
				delaySum[p.user] += ev.T - p.arrive
			}
			pool.put(p)
			nextFromQueues(ev.T)
		}
	}

	lq.finish()

	res.Duration = cfg.Horizon
	//lint:allow ctxflow O(n) post-run stats assembly over per-source accumulators; the event loop above already honored the deadline
	for i := 0; i < n; i++ {
		res.AvgQueue[i] = lq.avgQueue(i)
		res.QueueCI95[i] = batchCI(lq.batchRow(i), batchLen)
		if departed[i] > 0 {
			res.AvgDelay[i] = delaySum[i] / float64(departed[i])
		} else {
			res.AvgDelay[i] = math.NaN()
		}
		res.Throughput[i] = float64(departed[i]) / cfg.Horizon
	}
	res.TotalAvgQueue = totalAvg.Value()
	return res, nil
}
