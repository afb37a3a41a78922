// Package calq is the calendar-queue event core shared by the DES
// engines: a Brown-style bucketed priority queue with O(1) amortized
// Enqueue/DequeueMin, deterministic FIFO ordering within exact-time
// ties, and a typed Event API — no interface{} boxing, so the per-event
// path stays inside the //lint:hotpath allocation-free contract.
//
// Layout.  A queue Init-ed for at most flatCap events starts flat: the
// events sit unordered in one slice allocated at full capacity, Enqueue
// appends, and DequeueMin and Remove scan it under the same (T, seq)
// order, with no hashing and no division.  A flat queue that would grow
// past flatCap moves once into the bucket calendar and stays there.  In
// the calendar, events hash into a power-of-two array of buckets by
// ⌊T/width⌋ & mask; the bucket array spans one "year" of nb·width
// simulated time, and later years wrap around.  Each bucket is kept
// sorted by dequeue priority with the minimum at the TAIL, so popping
// the bucket minimum is a constant-time truncation (and the vacated
// slot is zeroed, the same recycling discipline the heap Pop fix
// applies).  DequeueMin scans buckets from the cursor, bounded by each
// bucket's time window in the current year; if a full year passes
// without a hit (all events far in the future), a direct search over
// all bucket minima re-anchors the cursor.
//
// Tie-break contract.  Every Enqueue stamps a strictly increasing
// sequence number, and ordering is lexicographic on (T, seq): events
// with exactly equal timestamps dequeue in insertion order.  The
// comparison never uses float equality — ties fall through two
// strict < tests to the integer seq — which both satisfies the floateq
// lint contract and makes the order total and deterministic.  This
// strengthens the old container/heap order, which left exact-time ties
// unspecified; the fair-queueing finish-tag discipline (sort by
// (finish, seq)) is exactly this rule.
//
// Resizing.  The bucket count doubles when occupancy exceeds two
// events per bucket and halves when it falls under a quarter; each
// resize re-derives the bucket width deterministically from the
// observed event-time span (2·span/size, so average occupancy stays
// near one-half) — no sampling, no clocks, so a queue fed the same
// sequence of operations is always in the same state.
//
// Contract: timestamps must be finite and non-negative, and Dequeue
// order is total for any mix of operations (enqueues earlier than the
// last dequeued time re-anchor the cursor rather than being missed).
package calq

import "math"

// Event is one scheduled simulator event.  User, Token and Arr carry
// the engines' payload untouched; T is the event time and the hidden
// seq realizes the FIFO-within-tie contract.
// The field order and the int32 User pack the struct to 32 bytes — the
// arena is the queue's cache working set, and every byte of Event is
// multiplied by it.
type Event struct {
	// T is the event timestamp (finite, ≥ 0).
	T float64

	seq uint64 // insertion stamp; FIFO tie-break within equal T

	// Token validates completion events against preemption (engine
	// payload).
	Token int
	// User is the arrival's source index (engine payload; int32 holds
	// any realistic source population and keeps Event at 32 bytes).
	User int32
	// Arr distinguishes arrivals from completions (engine payload).
	Arr bool
}

// minBuckets floors the bucket array so the mask arithmetic and the
// shrink cascade always have room.
const minBuckets = 4

// bucketCap is the per-bucket capacity pre-carved out of a shared arena
// at Init/rehash time.  The resize policy keeps average occupancy
// around two events per bucket and cursor-local occupancy near three,
// so a Poisson-spread load overflows sixteen slots with negligible
// probability (~1e-8 per insert) — without the pre-carve, buckets would
// warm lazily through the guarded grow for the whole first calendar
// year and keep creeping past their high-water marks for many years
// after it, a steady allocation trickle the events/sec gate's
// two-horizon delta measures (and rejects).  Spare capacity is nearly
// free: only cache lines that hold live events are ever touched.
const bucketCap = 16

// newBuckets carves nb empty buckets of bucketCap capacity each out of
// a single arena allocation.  Three-index slicing caps every bucket at
// its own slot, so a bucket that outgrows it migrates to a private
// backing array via insert's guarded grow instead of clobbering its
// neighbor.
func newBuckets(nb int) [][]Event {
	arena := make([]Event, nb*bucketCap)
	buckets := make([][]Event, nb)
	for i := range buckets {
		buckets[i] = arena[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return buckets
}

// flatCap is the largest population the flat representation holds.  At
// a few pending events the calendar's fixed costs dominate — a division
// per insert, nearly two bucket probes per pop with another division
// each, a direct search over every bucket on a few percent of pops —
// and one scan of a short slice costs less.  In the general-service
// engine the flat scan led the calendar through 12 pending events, was
// even at 13 and behind from 16; the cap sits below the break-even
// (DESIGN.md §11 has the measurements).
const flatCap = 10

// Queue is a calendar queue.  The zero value is not ready; call Init.
type Queue struct {
	// flat holds the events, unordered, while the queue is in flat mode
	// (Init's sizeHint at most flatCap); it is nil in bucket mode.
	flat []Event

	buckets [][]Event
	mask    int     // len(buckets)-1; len is a power of two
	width   float64 // simulated-time span of one bucket
	size    int     // queued events
	seq     uint64  // last issued insertion stamp

	vcur  int64   // virtual bucket (⌊T/width⌋, unwrapped) the scan resumes at
	lastT float64 // floor of every queued event's T (monotone anchor)
}

// Init prepares the queue for a run: sizeHint is the expected steady
// population and widthHint the expected gap between successive minima
// (sanitized to 1 when degenerate).  A sizeHint of at most flatCap
// selects the flat representation, whose slice is allocated here at
// full capacity; a larger one starts the bucket calendar at the
// covering power of two.  A flat queue that outgrows flatCap moves into
// the calendar once, keeping widthHint.  Init allocates; the per-event
// operations do not.
func (q *Queue) Init(sizeHint int, widthHint float64) {
	// Sanitize the hint: NaN/±Inf/non-positive fall back to 1, and the
	// extremes are clamped so ⌊T/width⌋ stays far inside float64's exact
	// integer range (the scan-window arithmetic multiplies it back).
	if !(widthHint > 0) || math.IsInf(widthHint, 0) {
		widthHint = 1
	}
	if widthHint < 1e-6 {
		widthHint = 1e-6
	} else if widthHint > 1e12 {
		widthHint = 1e12
	}
	q.width = widthHint
	q.size = 0
	q.seq = 0
	q.vcur = 0
	q.lastT = 0
	if sizeHint <= flatCap {
		q.flat = make([]Event, 0, flatCap)
		q.buckets = nil
		q.mask = 0
		return
	}
	q.flat = nil
	q.initBuckets(sizeHint)
}

// initBuckets installs an empty calendar for a population of n.  It is
// sized at about two events per bucket rather than one: the
// sorted-bucket insert absorbs the extra shift work inside a cache line
// it touched anyway, while halving the bucket-header and arena
// footprint — at 10⁵ events the queue's working set, where the
// random-bucket insert misses live.
func (q *Queue) initBuckets(n int) {
	nb := minBuckets
	for nb < (n+1)/2 {
		nb <<= 1
	}
	q.buckets = newBuckets(nb)
	q.mask = nb - 1
}

// Len is the number of queued events.
func (q *Queue) Len() int { return q.size }

// Enqueue schedules ev (its seq field is ignored and re-stamped) and
// returns the insertion stamp, which Remove accepts to cancel the event
// later.  Amortized O(1); the rare bucket-array resize and the one-time
// move out of flat mode live here, off the hot inner path.
func (q *Queue) Enqueue(ev Event) uint64 {
	q.seq++
	ev.seq = q.seq
	if q.flat != nil {
		if n := len(q.flat); n < flatCap {
			q.flat = q.flat[:n+1]
			q.flat[n] = ev
			q.size++
			return ev.seq
		}
		q.spill()
	}
	if q.size == 0 || ev.T < q.lastT {
		// Keep lastT a true floor of the queued timestamps so the
		// year-scan's "everything is at or after the cursor" invariant
		// holds even for out-of-order schedules.
		q.lastT = ev.T
		q.resetCursor(ev.T)
	}
	if q.size+1 > 2*len(q.buckets) {
		q.rehash(2 * len(q.buckets))
	}
	q.insert(ev)
	return ev.seq
}

// DequeueMin removes and returns the earliest event (FIFO within exact
// ties); ok is false on an empty queue.
func (q *Queue) DequeueMin() (ev Event, ok bool) {
	if q.size == 0 {
		return Event{}, false
	}
	if q.flat != nil {
		i := q.flatMin()
		ev = q.flat[i]
		q.flatDelete(i)
		return ev, true
	}
	ev = q.popMin()
	if len(q.buckets) > minBuckets && q.size < len(q.buckets)/4 {
		q.rehash(len(q.buckets) / 2)
	}
	return ev, true
}

// Remove cancels the queued event with timestamp t and insertion stamp
// seq (as returned by Enqueue) and reports whether it was found.  The
// match is by the unique integer stamp — t only locates the bucket — so
// no float comparison is needed.
func (q *Queue) Remove(t float64, seq uint64) bool {
	if q.size == 0 {
		return false
	}
	if q.flat != nil {
		return q.removeFlat(seq)
	}
	return q.removeSeq(t, seq)
}

// eventBefore reports whether a dequeues before b: lexicographic on
// (T, seq) spelled as two strict < tests so exact-time ties resolve by
// insertion order without a float equality.
//
//lint:hotpath
func eventBefore(a, b Event) bool {
	if a.T < b.T {
		return true
	}
	if b.T < a.T {
		return false
	}
	return a.seq < b.seq
}

// flatMin returns the index of the flat slice's (T, seq) minimum.
// Callers guarantee flat mode and size > 0.
//
//lint:hotpath
func (q *Queue) flatMin() int {
	f := q.flat
	best := 0
	for i := 1; i < len(f); i++ {
		if eventBefore(f[i], f[best]) {
			best = i
		}
	}
	return best
}

// flatDelete removes the flat slice's event i by moving the last event
// into its slot and zeroing the vacated one.
//
//lint:hotpath
func (q *Queue) flatDelete(i int) {
	last := len(q.flat) - 1
	q.flat[i] = q.flat[last]
	q.flat[last] = Event{}
	q.flat = q.flat[:last]
	q.size--
}

// removeFlat deletes the flat-mode event with the given stamp.
//
//lint:hotpath
func (q *Queue) removeFlat(seq uint64) bool {
	for i := range q.flat {
		if q.flat[i].seq == seq {
			q.flatDelete(i)
			return true
		}
	}
	return false
}

// spill moves a full flat queue into the bucket calendar, for good: the
// calendar is sized for twice the cap, keeps Init's width, and anchors
// its cursor at the earliest queued event.  Dequeue order depends only
// on (T, seq), so the move cannot change it.
func (q *Queue) spill() {
	flat := q.flat
	q.flat = nil
	q.initBuckets(2 * flatCap)
	q.lastT = flat[0].T
	for _, ev := range flat[1:] {
		if ev.T < q.lastT {
			q.lastT = ev.T
		}
	}
	q.resetCursor(q.lastT)
	q.size = 0
	for _, ev := range flat {
		q.insert(ev)
	}
}

// bucketOf maps a timestamp to its bucket index under the current
// width.
//
//lint:hotpath
func (q *Queue) bucketOf(t float64) int {
	return int(int64(t/q.width)) & q.mask
}

// resetCursor re-anchors the dequeue scan at t's virtual bucket.
//
//lint:hotpath
func (q *Queue) resetCursor(t float64) {
	q.vcur = int64(t / q.width)
}

// insert places ev into its bucket, keeping the bucket sorted with the
// next-to-dequeue event at the tail.  The backing array grows through
// the guarded-grow idiom (no growing append), so the steady state —
// capacity already high-watered — runs allocation-free.
//
//lint:hotpath
func (q *Queue) insert(ev Event) {
	i := q.bucketOf(ev.T)
	b := q.buckets[i]
	n := len(b)
	if cap(b) < n+1 {
		grown := make([]Event, n, 2*n+4)
		copy(grown, b)
		b = grown
	}
	b = b[:n+1]
	j := n - 1
	for j >= 0 && eventBefore(b[j], ev) {
		b[j+1] = b[j]
		j--
	}
	b[j+1] = ev
	q.buckets[i] = b
	q.size++
}

// popMin runs the calendar scan: from the cursor's virtual bucket, each
// bucket's tail (its minimum) wins if its own virtual bucket number is
// at or before the scan position; a full fruitless year falls back to
// the direct search.  Callers guarantee size > 0.
//
// The membership test recomputes ⌊T/width⌋ — the SAME expression insert
// hashes with — rather than comparing T against a running time bound.
// An earlier version carried the window's upper bound as a float
// accumulator (top += width persisted across pops); its rounding drifts
// relative to the product ⌊T/width⌋·width as the clock grows, and once
// a boundary event failed the drifted comparison by one ulp its bucket
// was already behind the cursor, so the event waited a full calendar
// year to be seen again — in the DES engines a completion delayed a
// year stalls the server while arrivals pile up.  Deriving both sides
// from the identical division makes assignment and scan agree bit for
// bit at every boundary, at any clock magnitude.
//
//lint:hotpath
func (q *Queue) popMin() Event {
	v := q.vcur
	for k := 0; k <= q.mask; k++ {
		i := int(v) & q.mask
		b := q.buckets[i]
		if m := len(b) - 1; m >= 0 && int64(b[m].T/q.width) <= v {
			ev := b[m]
			b[m] = Event{} // recycle the slot zeroed
			q.buckets[i] = b[:m]
			q.size--
			q.vcur = v
			q.lastT = ev.T
			return ev
		}
		v++
	}
	return q.popDirect()
}

// popDirect finds the global minimum across all bucket tails — the
// fallback when every queued event lies beyond the scanned year — and
// re-anchors the cursor there.  Callers guarantee size > 0.
//
//lint:hotpath
func (q *Queue) popDirect() Event {
	best := -1
	for i := range q.buckets {
		m := len(q.buckets[i]) - 1
		if m < 0 {
			continue
		}
		if best < 0 || eventBefore(q.buckets[i][m], q.buckets[best][len(q.buckets[best])-1]) {
			best = i
		}
	}
	b := q.buckets[best]
	m := len(b) - 1
	ev := b[m]
	b[m] = Event{}
	q.buckets[best] = b[:m]
	q.size--
	q.lastT = ev.T
	q.resetCursor(ev.T)
	return ev
}

// removeSeq deletes the event with the given stamp from t's bucket,
// preserving the bucket order and zeroing the vacated tail slot.
//
//lint:hotpath
func (q *Queue) removeSeq(t float64, seq uint64) bool {
	i := q.bucketOf(t)
	b := q.buckets[i]
	for j := len(b) - 1; j >= 0; j-- {
		if b[j].seq == seq {
			copy(b[j:], b[j+1:])
			b[len(b)-1] = Event{}
			q.buckets[i] = b[:len(b)-1]
			q.size--
			return true
		}
	}
	return false
}

// rehash rebuilds the calendar at the new bucket count, re-deriving the
// width from the observed event-time span: width = 2·span/size keeps
// the average occupancy near one half.  Deterministic — the new state
// is a pure function of the queued events — and O(size), amortized
// against the size change that triggered it.
func (q *Queue) rehash(nb int) {
	if nb < minBuckets {
		nb = minBuckets
	}
	old := q.buckets
	minT, maxT := math.Inf(1), math.Inf(-1)
	for _, b := range old {
		for _, ev := range b {
			if ev.T < minT {
				minT = ev.T
			}
			if ev.T > maxT {
				maxT = ev.T
			}
		}
	}
	if q.size > 1 && maxT > minT {
		q.width = 2 * (maxT - minT) / float64(q.size)
	}
	// Keep virtual bucket numbers (⌊T/width⌋) well inside float64's
	// exact-integer range even when the span collapses: a width below
	// maxT/2^40 would make the cursor's year arithmetic inexact.
	if lo := maxT / float64(int64(1)<<40); maxT > 0 && q.width < lo {
		q.width = lo
	}
	q.buckets = newBuckets(nb)
	q.mask = nb - 1
	q.size = 0
	for _, b := range old {
		for _, ev := range b {
			q.insert(ev)
		}
	}
	q.resetCursor(q.lastT)
}
