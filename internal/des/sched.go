package des

import (
	"context"
	"math"

	"greednet/internal/randdist"
	"greednet/internal/stats"
)

// The scheduling engine: Poisson arrivals, general unit-mean service, and
// NON-preemptive schedulers that pick the next packet to transmit whole —
// the setting of real packet networks and of the Fair Queueing algorithm
// of Demers, Keshav & Shenker that §5.2 discusses.  (The preemptive
// priority engine lives in gsim.go; the memoryless CTMC engine in des.go.)
// Like gsim.go, the engine holds only the next superposed arrival and the
// in-service completion.

// Scheduler selects the next packet to transmit.
type Scheduler interface {
	// Name identifies the scheduler.
	Name() string
	// Reset prepares for a run.
	Reset(rates []float64)
	// Enqueue admits an arriving packet; now is the arrival time and
	// p.remaining its full transmission time (known at arrival, as packet
	// lengths are on real links).
	Enqueue(p *gpacket, now float64)
	// Dequeue removes and returns the next packet to transmit.  Called
	// only when Len() > 0, at time now.
	Dequeue(now float64) *gpacket
	// Len is the number of queued packets.
	Len() int
}

// FCFSSched transmits packets in arrival order (the baseline).  The queue
// advances a head index on Dequeue and compacts in place once the dead
// prefix dominates — the same amortization as fifoQueue in
// disciplines.go — so the backing array stops growing (and stops
// re-allocating) at the high-water backlog.  The historical `q = q[1:]`
// dequeue kept every popped packet reachable and leaked capacity forever.
type FCFSSched struct {
	q    []*gpacket
	head int
}

// Name implements Scheduler.
func (f *FCFSSched) Name() string { return "fcfs" }

// Reset implements Scheduler.
func (f *FCFSSched) Reset(rates []float64) {
	f.q = f.q[:0]
	f.head = 0
}

// Enqueue implements Scheduler.
func (f *FCFSSched) Enqueue(p *gpacket, now float64) { f.q = append(f.q, p) }

// Dequeue implements Scheduler.
func (f *FCFSSched) Dequeue(now float64) *gpacket {
	p := f.q[f.head]
	f.q[f.head] = nil // release the slot: a departed packet must not stay reachable
	f.head++
	if f.head > 64 && f.head*2 >= len(f.q) {
		f.q = append(f.q[:0], f.q[f.head:]...)
		f.head = 0
	}
	return p
}

// Len implements Scheduler.
func (f *FCFSSched) Len() int { return len(f.q) - f.head }

// fqItem is a tagged packet in the FQ heap.
type fqItem struct {
	p      *gpacket
	finish float64
	seq    int64 // FIFO tie-break
}

// fqHeap is a binary min-heap of fqItems under (finish, seq), a strict
// total order, so its pop order is fully determined.  push and pop mirror
// container/heap's Push and Pop (sift-up, swap-to-end then sift-down)
// on the typed slice, which keeps each item out of an interface box.
type fqHeap []fqItem

func (h fqHeap) less(i, j int) bool {
	if h[i].finish != h[j].finish { //lint:allow floateq exact finish-tag tie-break keeps the heap deterministic
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}

// push adds it to the heap.
func (h *fqHeap) push(it fqItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes and returns the least item; the heap must be nonempty.
func (h *fqHeap) pop() fqItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	it := q[n]
	q[n] = fqItem{} // zero the vacated tail: the popped packet pointer must not linger in the backing array
	*h = q[:n]
	return it
}

// FQSched is the Fair Queueing scheduler of Demers, Keshav & Shenker:
// it emulates bit-by-bit round robin by tracking a virtual time V(t) that
// advances at rate 1/(number of backlogged flows), stamps each arriving
// packet with a virtual finish time
//
//	F = max(V(arrival), F_prev(flow)) + length,
//
// and always transmits the queued packet with the smallest finish tag.
// It approximates head-of-line processor sharing without time-slicing.
type FQSched struct {
	h          fqHeap
	lastFinish []float64 // per-flow previous finish tag
	queued     []int     // per-flow queued-packet count (backlog tracking)
	backlogged int
	vtime      float64
	lastUpdate float64
	seq        int64
}

// Name implements Scheduler.
func (f *FQSched) Name() string { return "fair-queueing" }

// Reset implements Scheduler.
func (f *FQSched) Reset(rates []float64) {
	n := len(rates)
	f.h = f.h[:0]
	f.lastFinish = make([]float64, n)
	f.queued = make([]int, n)
	f.backlogged = 0
	f.vtime = 0
	f.lastUpdate = 0
	f.seq = 0
}

// advance moves virtual time forward to now.  While k flows are
// backlogged, each receives a 1/k share of the server, so a bit-round
// completes every k real time units.
func (f *FQSched) advance(now float64) {
	if now > f.lastUpdate {
		if f.backlogged > 0 {
			f.vtime += (now - f.lastUpdate) / float64(f.backlogged)
		} else {
			// An idle server lets virtual time track real time so stale
			// finish tags do not advantage long-idle flows.
			f.vtime += now - f.lastUpdate
		}
		f.lastUpdate = now
	}
}

// Enqueue implements Scheduler.
func (f *FQSched) Enqueue(p *gpacket, now float64) {
	f.advance(now)
	u := p.user
	start := f.vtime
	if f.lastFinish[u] > start {
		start = f.lastFinish[u]
	}
	finish := start + p.remaining
	f.lastFinish[u] = finish
	if f.queued[u] == 0 {
		f.backlogged++
	}
	f.queued[u]++
	f.seq++
	f.h.push(fqItem{p: p, finish: finish, seq: f.seq})
}

// Dequeue implements Scheduler.
func (f *FQSched) Dequeue(now float64) *gpacket {
	f.advance(now)
	it := f.h.pop()
	u := it.p.user
	f.queued[u]--
	if f.queued[u] == 0 {
		f.backlogged--
	}
	return it.p
}

// Len implements Scheduler.
func (f *FQSched) Len() int { return len(f.h) }

// SchedConfig parameterizes a non-preemptive scheduling run.
type SchedConfig struct {
	// Rates are the per-flow Poisson rates (Σ < 1).
	Rates []float64
	// Service is the unit-mean packet-length distribution; default
	// exponential.
	Service randdist.Dist
	// Sched is the scheduler under test; default FCFS.
	Sched Scheduler
	// Horizon, Warmup, Seed, Batches behave as in Config.
	Horizon, Warmup float64
	Seed            int64
	Batches         int
}

// RunSched simulates the non-preemptive scheduler.
func RunSched(cfg SchedConfig) (Result, error) {
	return RunSchedCtx(context.Background(), cfg)
}

// RunSchedCtx is RunSched under a context; see RunCtx for the
// cancellation contract (typed error, no partial statistics).
func RunSchedCtx(ctx context.Context, cfg SchedConfig) (Result, error) {
	n := len(cfg.Rates)
	total, err := checkConfig(cfg.Rates, &cfg.Horizon, &cfg.Warmup, &cfg.Batches)
	if err != nil {
		return Result{}, err
	}
	if cfg.Service == nil {
		cfg.Service = randdist.Exponential{}
	}
	if cfg.Sched == nil {
		cfg.Sched = &FCFSSched{}
	}

	rng := randdist.NewRand(cfg.Seed)
	cfg.Sched.Reset(cfg.Rates)

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
	done := math.Inf(1) // completion time of the packet in transmission
	inSystem := 0
	prev := 0.0

	gate := ctxGate{ctx: ctx}
	for {
		if err := gate.Err(); err != nil {
			return Result{}, err
		}
		t := min(arr.t, done)
		// O(1) total-queue average per event; per-user integrals advance
		// lazily at count changes (lq.bump).
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
			p.class = 0
			p.arrive = t
			p.remaining = cfg.Service.Sample(rng)
			lq.bump(u, t, 1)
			inSystem++
			if t >= cfg.Warmup {
				res.Arrivals++
			}
			if serving == nil {
				serving, done = p, t+p.remaining
			} else {
				cfg.Sched.Enqueue(p, t)
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
		if cfg.Sched.Len() > 0 {
			serving = cfg.Sched.Dequeue(t)
			done = t + serving.remaining
		}
	}
	return finishResult(res, lq, &totalAvg, delaySum, departed, cfg.Horizon), nil
}
