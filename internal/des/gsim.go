package des

import (
	"context"
	"math"
	"math/rand"
	"sort"

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
// The engine holds two pending times and no event set: the next arrival
// of the superposed Σλ stream (see arrivals in lazy.go) and the
// in-service completion, +Inf while the server idles.  A preemption only
// re-times the completion.  Service times come from cfg.Service.Sample
// on the run's rng.

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

// RunG simulates the general-service preemptive-priority station.
func RunG(cfg GConfig) (Result, error) {
	return RunGCtx(context.Background(), cfg)
}

// RunGCtx is RunG under a context; see RunCtx for the cancellation
// contract (typed error, no partial statistics).
func RunGCtx(ctx context.Context, cfg GConfig) (Result, error) {
	n := len(cfg.Rates)
	total, err := checkConfig(cfg.Rates, &cfg.Horizon, &cfg.Warmup, &cfg.Batches)
	if err != nil {
		return Result{}, err
	}
	if cfg.Service == nil {
		cfg.Service = randdist.Exponential{}
	}
	if cfg.Classify == nil {
		cfg.Classify = SingleClass{}
	}

	rng := randdist.NewRand(cfg.Seed)
	cfg.Classify.Reset(cfg.Rates, rng)
	classes := make([]deque, cfg.Classify.NumClasses())

	end := cfg.Warmup + cfg.Horizon
	lq := newLazyQueues(n, cfg.Batches, cfg.Warmup, end, cfg.Horizon/float64(cfg.Batches))
	var totalAvg stats.TimeAverage
	delaySum := make([]float64, n)
	departed := make([]int64, n)
	var res Result

	var arr arrivals
	arr.init(rng, cfg.Rates, total)
	var pool gpacketPool
	var serving *gpacket
	done := math.Inf(1) // completion time of the serving packet
	inSystem := 0
	prev := 0.0

	start := func(p *gpacket, now float64) {
		serving = p
		done = now + p.remaining
	}

	gate := ctxGate{ctx: ctx}
	for {
		if err := gate.Err(); err != nil {
			return Result{}, err
		}
		t := min(arr.t, done)
		// Accumulate the O(1) total-queue average over [prev, now); the
		// per-user integrals advance lazily at count changes (lq.bump).
		now := min(t, end)
		if now > cfg.Warmup && now > prev {
			if span := now - max(prev, cfg.Warmup); span > 0 {
				totalAvg.Accumulate(float64(inSystem), span)
			}
		}
		prev = now
		if t > end {
			break
		}
		if arr.t <= done {
			u := arr.src
			arr.next()
			p := pool.get()
			p.user = u
			p.class = cfg.Classify.Classify(u)
			p.arrive = t
			p.remaining = cfg.Service.Sample(rng)
			lq.bump(u, t, 1)
			inSystem++
			if t >= cfg.Warmup {
				res.Arrivals++
			}
			switch {
			case serving == nil:
				start(p, t)
			case p.class < serving.class:
				// Preempt: bank the remaining work, resume it later, and
				// re-time the completion for the newcomer.
				serving.remaining = done - t
				classes[serving.class].pushFront(serving)
				start(p, t)
			default:
				classes[p.class].pushBack(p)
			}
			continue
		}
		p := serving
		lq.bump(p.user, t, -1)
		inSystem--
		if t >= cfg.Warmup {
			res.Departures++
			departed[p.user]++
			delaySum[p.user] += t - p.arrive
		}
		pool.put(p)
		serving, done = nil, math.Inf(1)
		for c := range classes {
			if classes[c].len() > 0 {
				start(classes[c].popFront(), t)
				break
			}
		}
	}
	return finishResult(res, lq, &totalAvg, delaySum, departed, cfg.Horizon), nil
}
