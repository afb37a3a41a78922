package des

import (
	"math/rand"
	"sort"
)

// mustNonEmpty enforces the Discipline.Dequeue contract: Dequeue is called
// only when Len() > 0, so an empty structure here is an internal invariant
// violation (a corrupted Len bookkeeping or a misused Discipline), never a
// user-recoverable condition.  Panicking with a uniform message beats the
// bare index panic the slice access would otherwise produce.
func mustNonEmpty(name string, n int) {
	if n == 0 {
		panic("des: Dequeue on empty " + name + " (Discipline contract requires Len() > 0)")
	}
}

// fifoQueue is a slice-backed FIFO with amortized compaction.
type fifoQueue struct {
	buf  []Packet
	head int
}

func (q *fifoQueue) push(p Packet) { q.buf = append(q.buf, p) }

func (q *fifoQueue) pop() Packet {
	p := q.buf[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return p
}

func (q *fifoQueue) len() int { return len(q.buf) - q.head }

func (q *fifoQueue) reset() { q.buf = q.buf[:0]; q.head = 0 }

// FIFO serves packets in arrival order — the discipline that realizes the
// proportional allocation.
type FIFO struct {
	q fifoQueue
}

// Name implements Discipline.
func (f *FIFO) Name() string { return "fifo" }

// Reset implements Discipline.
func (f *FIFO) Reset(rates []float64, rng *rand.Rand) { f.q.reset() }

// Enqueue implements Discipline.
func (f *FIFO) Enqueue(p Packet) { f.q.push(p) }

// Dequeue implements Discipline.
func (f *FIFO) Dequeue() Packet {
	mustNonEmpty("FIFO", f.q.len())
	return f.q.pop()
}

// Len implements Discipline.
func (f *FIFO) Len() int { return f.q.len() }

// LIFOPreemptive always serves the most recent arrival (preemptive-resume;
// with exponential service the resume detail is immaterial).  Class-blind,
// so it also realizes the proportional allocation — a useful check that
// per-user mean queues depend on the discipline only through class
// awareness.
type LIFOPreemptive struct {
	stack []Packet
}

// Name implements Discipline.
func (l *LIFOPreemptive) Name() string { return "lifo-preemptive" }

// Reset implements Discipline.
func (l *LIFOPreemptive) Reset(rates []float64, rng *rand.Rand) { l.stack = l.stack[:0] }

// Enqueue implements Discipline.
func (l *LIFOPreemptive) Enqueue(p Packet) { l.stack = append(l.stack, p) }

// Dequeue implements Discipline.
func (l *LIFOPreemptive) Dequeue() Packet {
	mustNonEmpty("LIFOPreemptive", len(l.stack))
	p := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	return p
}

// Len implements Discipline.
func (l *LIFOPreemptive) Len() int { return len(l.stack) }

// ProcessorSharing serves all queued packets at equal rates; with
// exponential service the completing packet is uniform among those present.
// Class-blind ⇒ proportional allocation.
type ProcessorSharing struct {
	pkts []Packet
	rng  *rand.Rand
}

// Name implements Discipline.
func (ps *ProcessorSharing) Name() string { return "processor-sharing" }

// Reset implements Discipline.
func (ps *ProcessorSharing) Reset(rates []float64, rng *rand.Rand) {
	ps.pkts = ps.pkts[:0]
	ps.rng = rng
}

// Enqueue implements Discipline.
func (ps *ProcessorSharing) Enqueue(p Packet) { ps.pkts = append(ps.pkts, p) }

// Dequeue implements Discipline.
func (ps *ProcessorSharing) Dequeue() Packet {
	mustNonEmpty("ProcessorSharing", len(ps.pkts))
	i := ps.rng.Intn(len(ps.pkts))
	p := ps.pkts[i]
	last := len(ps.pkts) - 1
	ps.pkts[i] = ps.pkts[last]
	ps.pkts = ps.pkts[:last]
	return p
}

// Len implements Discipline.
func (ps *ProcessorSharing) Len() int { return len(ps.pkts) }

// HOLProcessorSharing shares the server equally among *backlogged users*
// (head-of-line processor sharing): the completing packet is the head of a
// uniformly chosen backlogged user's queue.  This is the fluid ideal that
// Fair Queueing approximates (§5.2).
type HOLProcessorSharing struct {
	queues    []fifoQueue
	backlog   []int // user indices with nonempty queues
	positions []int // user → index in backlog, or −1
	total     int
	rng       *rand.Rand
}

// Name implements Discipline.
func (h *HOLProcessorSharing) Name() string { return "hol-processor-sharing" }

// Reset implements Discipline.
func (h *HOLProcessorSharing) Reset(rates []float64, rng *rand.Rand) {
	n := len(rates)
	h.queues = make([]fifoQueue, n)
	h.backlog = h.backlog[:0]
	h.positions = make([]int, n)
	for i := range h.positions {
		h.positions[i] = -1
	}
	h.total = 0
	h.rng = rng
}

// Enqueue implements Discipline.
func (h *HOLProcessorSharing) Enqueue(p Packet) {
	q := &h.queues[p.User]
	if q.len() == 0 {
		h.positions[p.User] = len(h.backlog)
		h.backlog = append(h.backlog, p.User)
	}
	q.push(p)
	h.total++
}

// Dequeue implements Discipline.
func (h *HOLProcessorSharing) Dequeue() Packet {
	mustNonEmpty("HOLProcessorSharing", len(h.backlog))
	k := h.rng.Intn(len(h.backlog))
	u := h.backlog[k]
	q := &h.queues[u]
	p := q.pop()
	h.total--
	if q.len() == 0 {
		last := len(h.backlog) - 1
		h.backlog[k] = h.backlog[last]
		h.positions[h.backlog[k]] = k
		h.backlog = h.backlog[:last]
		h.positions[u] = -1
	}
	return p
}

// Len implements Discipline.
func (h *HOLProcessorSharing) Len() int { return h.total }

// CyclicPolling serves backlogged users in fixed cyclic order, one packet
// per visit (limited-1 polling with zero switchover) — one of the paper's
// §4 examples of a MAC discipline.  With exponential service it behaves
// like HOL processor sharing with a deterministic instead of random visit
// order: backlogged users receive equal long-run service shares.
type CyclicPolling struct {
	queues []fifoQueue
	total  int
	cursor int
}

// Name implements Discipline.
func (c *CyclicPolling) Name() string { return "cyclic-polling" }

// Reset implements Discipline.
func (c *CyclicPolling) Reset(rates []float64, rng *rand.Rand) {
	c.queues = make([]fifoQueue, len(rates))
	c.total = 0
	c.cursor = 0
}

// Enqueue implements Discipline.
func (c *CyclicPolling) Enqueue(p Packet) {
	c.queues[p.User].push(p)
	c.total++
}

// Dequeue implements Discipline.
func (c *CyclicPolling) Dequeue() Packet {
	n := len(c.queues)
	for k := 0; k < n; k++ {
		u := (c.cursor + k) % n
		if c.queues[u].len() > 0 {
			c.cursor = (u + 1) % n
			c.total--
			return c.queues[u].pop()
		}
	}
	mustNonEmpty("CyclicPolling", 0)
	return Packet{} // unreachable
}

// Len implements Discipline.
func (c *CyclicPolling) Len() int { return c.total }

// StrictPriority serves the lowest-numbered nonempty class first (FIFO
// within a class), preemptively.  Classes are read from Packet.Class,
// which the caller assigns before Enqueue (RatePriority and
// FairShareSplitter wrap it to do so).
type StrictPriority struct {
	classes []fifoQueue
	total   int
	// NumClasses fixes the class count at Reset; default = number of users.
	NumClasses int
}

// Name implements Discipline.
func (s *StrictPriority) Name() string { return "strict-priority" }

// Reset implements Discipline.
func (s *StrictPriority) Reset(rates []float64, rng *rand.Rand) {
	n := s.NumClasses
	if n <= 0 {
		n = len(rates)
	}
	s.classes = make([]fifoQueue, n)
	s.total = 0
}

// Enqueue implements Discipline.
func (s *StrictPriority) Enqueue(p Packet) {
	if p.Class < 0 {
		p.Class = 0
	}
	if p.Class >= len(s.classes) {
		p.Class = len(s.classes) - 1
	}
	s.classes[p.Class].push(p)
	s.total++
}

// Dequeue implements Discipline.
func (s *StrictPriority) Dequeue() Packet {
	for i := range s.classes {
		if s.classes[i].len() > 0 {
			s.total--
			return s.classes[i].pop()
		}
	}
	mustNonEmpty("StrictPriority", 0)
	return Packet{} // unreachable
}

// Len implements Discipline.
func (s *StrictPriority) Len() int { return s.total }

// RatePriority is head-of-line strict priority keyed to the rate order:
// the user with the k-th smallest declared rate is (permanently) assigned
// priority class k.  It realizes the alloc.HOLPriority(SmallestFirst)
// allocation for distinct rates.
type RatePriority struct {
	sp    StrictPriority
	class []int
}

// Name implements Discipline.
func (r *RatePriority) Name() string { return "rate-priority" }

// Reset implements Discipline.
func (r *RatePriority) Reset(rates []float64, rng *rand.Rand) {
	n := len(rates)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	r.class = make([]int, n)
	for rank, u := range idx {
		r.class[u] = rank
	}
	r.sp.NumClasses = n
	r.sp.Reset(rates, rng)
}

// Enqueue implements Discipline: the packet joins its user's rank class.
func (r *RatePriority) Enqueue(p Packet) {
	p.Class = r.class[p.User]
	r.sp.Enqueue(p)
}

// Dequeue implements Discipline.
func (r *RatePriority) Dequeue() Packet { return r.sp.Dequeue() }

// Len implements Discipline.
func (r *RatePriority) Len() int { return r.sp.Len() }

// FairShareSplitter implements the paper's Table 1: with users relabeled so
// rates ascend, class m (m = 1..N) carries, from every user with rank ≥ m,
// a Poisson substream of rate r_(m) − r_(m−1); classes are served with
// strict preemptive priority (class 1 highest).  Splitting a user's Poisson
// stream by i.i.d. class sampling with probabilities proportional to the
// increments realizes exactly those substreams, and the resulting per-user
// mean queues equal the Fair Share allocation C^FS.
type FairShareSplitter struct {
	sp   StrictPriority
	cdf  [][]float64 // per user: cumulative class probabilities
	rng  *rand.Rand
	rank []int
}

// Name implements Discipline.
func (f *FairShareSplitter) Name() string { return "fair-share-splitter" }

// Reset implements Discipline.
func (f *FairShareSplitter) Reset(rates []float64, rng *rand.Rand) {
	n := len(rates)
	f.rng = rng
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rates[idx[a]] < rates[idx[b]] })
	sorted := make([]float64, n)
	for rank, u := range idx {
		sorted[rank] = rates[u]
	}
	f.rank = make([]int, n)
	for rank, u := range idx {
		f.rank[u] = rank
	}
	// User with rank k (0-based) sends into classes m = 0..k with
	// probability (sorted[m] − sorted[m−1]) / sorted[k].
	f.cdf = make([][]float64, n)
	for u := 0; u < n; u++ {
		k := f.rank[u]
		cdf := make([]float64, k+1)
		prev := 0.0
		acc := 0.0
		for m := 0; m <= k; m++ {
			acc += sorted[m] - prev
			prev = sorted[m]
			cdf[m] = acc / sorted[k]
		}
		cdf[k] = 1 // guard against rounding
		f.cdf[u] = cdf
	}
	f.sp.NumClasses = n
	f.sp.Reset(rates, rng)
}

// Enqueue implements Discipline.
func (f *FairShareSplitter) Enqueue(p Packet) {
	cdf := f.cdf[p.User]
	x := f.rng.Float64()
	cls := sort.SearchFloat64s(cdf, x)
	if cls >= len(cdf) {
		cls = len(cdf) - 1
	}
	p.Class = cls
	f.sp.Enqueue(p)
}

// Dequeue implements Discipline.
func (f *FairShareSplitter) Dequeue() Packet { return f.sp.Dequeue() }

// Len implements Discipline.
func (f *FairShareSplitter) Len() int { return f.sp.Len() }
