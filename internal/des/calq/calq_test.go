package calq

import (
	"fmt"
	"math"
	"testing"

	"greednet/internal/randdist"
)

// model is the reference priority queue: a flat slice scanned for the
// (T, seq)-lexicographic minimum.  Dead slow and obviously correct.
type model struct {
	evs []Event
}

func (m *model) enqueue(ev Event) { m.evs = append(m.evs, ev) }
func (m *model) len() int         { return len(m.evs) }
func (m *model) remove(seq uint64) bool {
	for i := range m.evs {
		if m.evs[i].seq == seq {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			return true
		}
	}
	return false
}
func (m *model) popMin() Event {
	best := 0
	for i := range m.evs {
		if eventBefore(m.evs[i], m.evs[best]) {
			best = i
		}
	}
	ev := m.evs[best]
	m.evs = append(m.evs[:best], m.evs[best+1:]...)
	return ev
}

func sameEvent(a, b Event) bool {
	return math.Float64bits(a.T) == math.Float64bits(b.T) &&
		a.User == b.User && a.Token == b.Token && a.Arr == b.Arr && a.seq == b.seq
}

// TestFIFOTieBreak pins the tie-break contract: events enqueued with
// exactly equal timestamps dequeue in insertion order, interleaved
// arbitrarily with distinct-time events.
func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	q.Init(8, 0.5)
	const tie = 3.25
	for i := 0; i < 50; i++ {
		q.Enqueue(Event{T: tie, User: int32(i)})
		q.Enqueue(Event{T: tie + 1 + float64(i), User: int32(1000 + i)})
	}
	for i := 0; i < 50; i++ {
		ev, ok := q.DequeueMin()
		if !ok || int(ev.User) != i {
			t.Fatalf("tie %d: got user %d (ok=%v), want %d", i, ev.User, ok, i)
		}
	}
	for i := 0; i < 50; i++ {
		ev, ok := q.DequeueMin()
		if !ok || int(ev.User) != 1000+i {
			t.Fatalf("post-tie %d: got user %d (ok=%v), want %d", i, ev.User, ok, 1000+i)
		}
	}
	if _, ok := q.DequeueMin(); ok {
		t.Fatal("DequeueMin on empty queue reported ok")
	}
}

// TestModelEquivalence drives the queue and the reference model through
// the same randomized operation sequences — enqueues (including exact
// ties and out-of-order earlier times), dequeues, and removes — across
// seeds and load shapes, asserting every dequeued event matches the
// model's.  Each sequence runs in three ways: held within flatCap from a
// flat Init, Init-ed above the cap so the calendar's grow and shrink
// rehashes fire, and grown past the cap from a flat Init so the queue
// moves into the calendar mid-sequence.
func TestModelEquivalence(t *testing.T) {
	modes := []struct {
		name     string
		sizeHint int
		maxLen   int  // the op mix never grows the model past this; 0 = unbounded
		flat     bool // representation the queue must end in
	}{
		{"flat", 4, flatCap, true},
		{"bucket", 4 * flatCap, 0, false},
		{"spill", 4, 0, false},
	}
	for _, mode := range modes {
		for _, seed := range []int64{1, 2, 7, 42} {
			for _, span := range []float64{1.0, 1e3, 2e5} {
				rng := randdist.NewRand(seed)
				var q Queue
				q.Init(mode.sizeHint, span/64)
				var m model
				var live []uint64 // stamps still queued (candidates for Remove)
				lastT := 0.0
				where := func(op int) string {
					return fmt.Sprintf("%s seed %d span %g op %d", mode.name, seed, span, op)
				}
				for op := 0; op < 4000; op++ {
					full := mode.maxLen > 0 && m.len() >= mode.maxLen
					switch r := rng.Float64(); {
					case (r < 0.55 || m.len() == 0) && !full:
						ev := Event{T: rng.Float64() * span, User: int32(op)}
						switch {
						case rng.Float64() < 0.15 && m.len() > 0:
							// exact tie with a queued event
							ev.T = m.evs[rng.Intn(m.len())].T
						case rng.Float64() < 0.15:
							// strictly earlier than the last dequeue
							ev.T = lastT * rng.Float64()
						}
						seq := q.Enqueue(ev)
						ev.seq = seq
						m.enqueue(ev)
						live = append(live, seq)
					case r < 0.85 || full:
						got, ok := q.DequeueMin()
						if !ok {
							t.Fatalf("%s: queue empty, model has %d", where(op), m.len())
						}
						want := m.popMin()
						if !sameEvent(got, want) {
							t.Fatalf("%s: got %+v, want %+v", where(op), got, want)
						}
						lastT = got.T
						live = removeStamp(live, got.seq)
					default:
						if len(live) == 0 {
							continue
						}
						k := rng.Intn(len(live))
						seq := live[k]
						tm := timeOf(&m, seq)
						if got, want := q.Remove(tm, seq), m.remove(seq); got != want {
							t.Fatalf("%s: Remove(%d)=%v, model=%v", where(op), seq, got, want)
						}
						live = removeStamp(live, seq)
					}
					if q.Len() != m.len() {
						t.Fatalf("%s: Len=%d, model=%d", where(op), q.Len(), m.len())
					}
				}
				if flat := q.flat != nil; flat != mode.flat {
					t.Fatalf("%s seed %d span %g: flat=%v after the sequence, want %v", mode.name, seed, span, flat, mode.flat)
				}
				// Drain: the full remaining order must match.
				for m.len() > 0 {
					got, ok := q.DequeueMin()
					if !ok {
						t.Fatalf("%s drain: queue empty early", where(-1))
					}
					if want := m.popMin(); !sameEvent(got, want) {
						t.Fatalf("%s drain: got %+v, want %+v", where(-1), got, want)
					}
				}
				if q.Len() != 0 {
					t.Fatalf("%s: %d events left after drain", where(-1), q.Len())
				}
			}
		}
	}
}

// TestFlatSteadyStateZeroAllocs pins the flat representation's
// per-event cost at zero allocations: a hold loop at a DES-sized
// population pops the minimum, schedules a later event, cancels it and
// schedules another, and never leaves flat mode.
func TestFlatSteadyStateZeroAllocs(t *testing.T) {
	var q Queue
	q.Init(5, 0.5)
	for i := 0; i < 5; i++ {
		q.Enqueue(Event{T: float64(i), User: int32(i)})
	}
	if got := testing.AllocsPerRun(1000, func() {
		ev, _ := q.DequeueMin()
		seq := q.Enqueue(Event{T: ev.T + 3, User: ev.User})
		q.Remove(ev.T+3, seq)
		q.Enqueue(Event{T: ev.T + 2.5, User: ev.User, Arr: true})
	}); got != 0 {
		t.Errorf("flat hold loop allocs/op = %v, want 0", got)
	}
	if q.flat == nil || q.Len() != 5 {
		t.Fatalf("hold loop left flat mode or lost events (flat=%v, Len=%d)", q.flat != nil, q.Len())
	}
}

// FuzzQueueModes runs arbitrary operation sequences against the
// reference model.  hint picks Init's sizeHint on both sides of flatCap,
// and ops is read two bytes at a time, an opcode and its argument:
// enqueues on a coarse time grid (so exact-time ties are common), at a
// fraction of the last popped time, or at a queued event's exact time;
// pops; and Remove of any stamp ever issued, live or gone.  Enough
// enqueues grow a flat queue past the cap into the calendar.  Every pop,
// Remove and Len must match the model.
func FuzzQueueModes(f *testing.F) {
	grow := make([]byte, 0, 2*(3*flatCap+8))
	for i := 0; i < 3*flatCap; i++ {
		grow = append(grow, byte(i%5), byte(7*i))
	}
	for i := 0; i < 8; i++ {
		grow = append(grow, 5, 0)
	}
	f.Add(uint8(4), grow)
	f.Add(uint8(2*flatCap), grow)
	f.Add(uint8(3), []byte{0, 3, 0, 3, 4, 0, 5, 0, 3, 9, 7, 1, 6, 0, 4, 1, 7, 3, 5, 0, 5, 0})
	f.Add(uint8(flatCap), []byte{1, 8, 2, 8, 0, 8, 5, 0, 3, 128, 3, 200, 6, 0, 7, 0, 7, 9, 6, 0})
	f.Fuzz(func(t *testing.T, hint uint8, ops []byte) {
		var q Queue
		q.Init(int(hint)%(2*flatCap+2), 0.25)
		var m model
		var stamps []uint64 // every stamp Enqueue issued
		lastT := 0.0
		enqueue := func(tm float64, user int) {
			ev := Event{T: tm, User: int32(user)}
			ev.seq = q.Enqueue(ev)
			m.enqueue(ev)
			stamps = append(stamps, ev.seq)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			switch op % 8 {
			case 0, 1, 2:
				enqueue(lastT+float64(arg%16)/4, i)
			case 3:
				enqueue(lastT*float64(arg)/256, i)
			case 4:
				if m.len() > 0 {
					enqueue(m.evs[arg%m.len()].T, i)
				}
			case 5, 6:
				got, ok := q.DequeueMin()
				if m.len() == 0 {
					if ok {
						t.Fatalf("op %d: DequeueMin on an empty queue returned %+v", i, got)
					}
					continue
				}
				if want := m.popMin(); !ok || !sameEvent(got, want) {
					t.Fatalf("op %d: got %+v (ok=%v), want %+v", i, got, ok, want)
				}
				lastT = got.T
			case 7:
				if len(stamps) == 0 {
					continue
				}
				seq := stamps[arg%len(stamps)]
				// A gone stamp's time is 0: Remove must miss wherever it looks.
				if got, want := q.Remove(timeOf(&m, seq), seq), m.remove(seq); got != want {
					t.Fatalf("op %d: Remove(%d)=%v, model=%v", i, seq, got, want)
				}
			}
			if q.Len() != m.len() {
				t.Fatalf("op %d: Len=%d, model=%d", i, q.Len(), m.len())
			}
		}
		for m.len() > 0 {
			got, ok := q.DequeueMin()
			if want := m.popMin(); !ok || !sameEvent(got, want) {
				t.Fatalf("drain: got %+v (ok=%v), want %+v", got, ok, want)
			}
		}
		if _, ok := q.DequeueMin(); ok {
			t.Fatal("drained queue still returned an event")
		}
	})
}

func removeStamp(live []uint64, seq uint64) []uint64 {
	for i, s := range live {
		if s == seq {
			live[i] = live[len(live)-1]
			return live[:len(live)-1]
		}
	}
	return live
}

func timeOf(m *model, seq uint64) float64 {
	for i := range m.evs {
		if m.evs[i].seq == seq {
			return m.evs[i].T
		}
	}
	return 0
}

// TestResizeInvariants forces the calendar through its grow and shrink
// cascades and checks the structural invariants after every resize:
// power-of-two bucket count, event conservation, per-bucket ordering
// (tail = minimum), and zeroed slack capacity (bucket recycling leaves
// no stale events behind the length).  Init is sized above flatCap, so
// the queue is in bucket mode from the start.
func TestResizeInvariants(t *testing.T) {
	rng := randdist.NewRand(9)
	var q Queue
	q.Init(flatCap+1, 0.25)
	if q.flat != nil {
		t.Fatalf("Init(%d) chose flat mode; the invariants below are the calendar's", flatCap+1)
	}
	nb0 := len(q.buckets)
	check := func(stage string) {
		t.Helper()
		if nb := len(q.buckets); nb&(nb-1) != 0 || nb < minBuckets {
			t.Fatalf("%s: bucket count %d not a power of two ≥ %d", stage, nb, minBuckets)
		}
		if q.mask != len(q.buckets)-1 {
			t.Fatalf("%s: mask %d != nb-1 %d", stage, q.mask, len(q.buckets)-1)
		}
		n := 0
		for i, b := range q.buckets {
			n += len(b)
			for j := 0; j+1 < len(b); j++ {
				if eventBefore(b[j], b[j+1]) {
					t.Fatalf("%s: bucket %d out of order at %d", stage, i, j)
				}
			}
			slack := b[len(b):cap(b)]
			for j, ev := range slack {
				if ev != (Event{}) {
					t.Fatalf("%s: bucket %d slack slot %d not zeroed: %+v", stage, i, j, ev)
				}
			}
		}
		if n != q.size {
			t.Fatalf("%s: bucket population %d != size %d", stage, n, q.size)
		}
	}
	for i := 0; i < 3000; i++ {
		q.Enqueue(Event{T: rng.Float64() * 1e4, User: int32(i)})
		if i%251 == 0 {
			check("grow")
		}
	}
	grown := len(q.buckets)
	if grown <= nb0 {
		t.Fatalf("3000 enqueues never grew the calendar (nb=%d, Init %d)", grown, nb0)
	}
	prev := Event{T: math.Inf(-1)}
	for q.Len() > 0 {
		ev, _ := q.DequeueMin()
		if eventBefore(ev, prev) {
			t.Fatalf("drain out of order: %+v after %+v", ev, prev)
		}
		prev = ev
		if q.Len()%397 == 0 {
			check("shrink")
		}
	}
	if len(q.buckets) >= grown {
		t.Fatalf("drain never shrank the calendar (nb=%d, peak %d)", len(q.buckets), grown)
	}
}

// TestInitSanitizesWidth covers the degenerate width hints: NaN, zero,
// negative, infinities and the clamped extremes must all still yield a
// working queue in each representation — flat, bucket from Init, and
// spilled from flat into a calendar that inherits the sanitized width.
func TestInitSanitizesWidth(t *testing.T) {
	modes := []struct {
		name     string
		sizeHint int
		n        int // events enqueued, latest first
	}{
		{"flat", 8, 2},
		{"bucket", flatCap + 1, 2},
		// Spills at the (flatCap+1)th event and stays below the grow
		// threshold, so no rehash re-derives the width before the drain.
		{"spill", 8, 2 * flatCap},
	}
	for _, w := range []float64{math.NaN(), 0, -3, math.Inf(1), math.Inf(-1), 1e-300, 1e300} {
		for _, mode := range modes {
			var q Queue
			q.Init(mode.sizeHint, w)
			for i := mode.n; i > 0; i-- {
				q.Enqueue(Event{T: float64(i), User: int32(i)})
			}
			if flat := q.flat != nil; flat != (mode.name == "flat") {
				t.Fatalf("widthHint %g %s: flat=%v after %d enqueues", w, mode.name, flat, mode.n)
			}
			if !(q.width >= 1e-6 && q.width <= 1e12) {
				t.Fatalf("widthHint %g %s: width %g not sanitized", w, mode.name, q.width)
			}
			for i := 1; i <= mode.n; i++ {
				if ev, ok := q.DequeueMin(); !ok || int(ev.User) != i {
					t.Fatalf("widthHint %g %s: dequeue %d got %+v (ok=%v)", w, mode.name, i, ev, ok)
				}
			}
		}
	}
}

// TestRemoveMissing pins Remove's misses: an already-dequeued stamp, a
// never-issued stamp, and an empty queue all report false, in the flat
// scan and in the calendar's bucket search alike.
func TestRemoveMissing(t *testing.T) {
	for _, sizeHint := range []int{4, flatCap + 1} {
		var q Queue
		q.Init(sizeHint, 1)
		mode := "bucket"
		if q.flat != nil {
			mode = "flat"
		}
		if want := sizeHint <= flatCap; (mode == "flat") != want {
			t.Fatalf("Init(%d) chose %s mode", sizeHint, mode)
		}
		seq := q.Enqueue(Event{T: 5})
		if !q.Remove(5, seq) {
			t.Fatalf("%s: Remove of a queued stamp failed", mode)
		}
		if q.Remove(5, seq) {
			t.Fatalf("%s: Remove of a removed stamp succeeded", mode)
		}
		q.Enqueue(Event{T: 1})
		if q.Remove(1, 999) {
			t.Fatalf("%s: Remove of a never-issued stamp succeeded", mode)
		}
		q.DequeueMin()
		if q.Remove(1, 2) {
			t.Fatalf("%s: Remove on an empty queue succeeded", mode)
		}
	}
}

// TestCursorBoundaryLongRun drives millions of enqueue/dequeue pairs
// with a monotonically growing clock, checking every DequeueMin against
// a small sorted model.  This is the regression test for the cursor
// drift bug: a cursor that carries its window bound as a float
// accumulator (top += width across pops) slides away from the
// ⌊T/width⌋ bucket assignment as the clock grows, and an event landing
// within the accumulated error of a bucket boundary is skipped for a
// full calendar year — here surfacing as an out-of-order pop against
// the model.  The integer virtual-bucket cursor recomputes membership
// with the same division insert hashes with, so no clock magnitude can
// split the two.  The queue spills out of flat mode and drains back to
// eight pending events first, so the long run scans a small calendar
// at the hint's width.
func TestCursorBoundaryLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run drift sweep")
	}
	rng := randdist.NewRand(99)
	var q Queue
	q.Init(8, 0.5556)

	type mev struct {
		t   float64
		ord int
	}
	var model []mev // sorted ascending by (t, ord); pop from front
	clock := 0.0
	next := 0
	push := func(tm float64) {
		e := mev{t: tm, ord: next}
		q.Enqueue(Event{T: tm, User: int32(next & 0x7fffffff)})
		next++
		i := len(model)
		for i > 0 && (tm < model[i-1].t || (tm == model[i-1].t && e.ord < model[i-1].ord)) {
			i--
		}
		model = append(model, mev{})
		copy(model[i+1:], model[i:])
		model[i] = e
	}
	pop := func(step int) {
		ev, ok := q.DequeueMin()
		if !ok {
			t.Fatalf("step %d: queue empty with %d modeled", step, len(model))
		}
		want := model[0]
		model = model[:copy(model, model[1:])]
		if math.Float64bits(ev.T) != math.Float64bits(want.t) || int(ev.User) != want.ord&0x7fffffff {
			t.Fatalf("step %d (clock %g): popped (T=%v user=%d), model min (T=%v ord=%d)",
				step, clock, ev.T, ev.User, want.t, want.ord)
		}
		if ev.T > clock {
			clock = ev.T
		}
	}
	// Keep a handful pending so pops interleave with inserts landing in
	// nearby and far buckets alike.
	for i := 0; i <= flatCap; i++ {
		push(clock + rng.Float64()*4)
	}
	for len(model) > 8 {
		pop(-1)
	}
	if q.flat != nil || len(q.buckets) > 16 {
		t.Fatalf("long run set up in flat=%v mode with %d buckets, want a small calendar", q.flat != nil, len(q.buckets))
	}
	const steps = 2_000_000
	for i := 0; i < steps; i++ {
		pop(i)
		// Mostly near-future events so the cursor advances steadily;
		// occasionally a far-future one that wraps into a later year.
		gap := rng.ExpFloat64()
		if i%97 == 0 {
			gap += 100 + rng.Float64()*1000
		}
		push(clock + gap)
	}
}

// TestCursorDriftEngineShaped reproduces the DES engines' event-queue
// shape at scale: 10⁵ pending events, most far in the future (next
// arrivals, mean 1.1·10⁵ ahead) plus a near-term stream (completions,
// mean 1 ahead), popped for millions of steps with the clock growing
// past 10⁶.  Every push is at or after the current clock, so the popped
// timestamps must be globally non-decreasing — the cursor-drift bug
// (float window accumulator diverging from the ⌊T/width⌋ assignment as
// the clock grows) surfaces as a boundary event skipped for a whole
// calendar year and popped out of order.
func TestCursorDriftEngineShaped(t *testing.T) {
	if testing.Short() {
		t.Skip("long-run drift sweep")
	}
	rng := randdist.NewRand(5)
	const n = 100_000
	var q Queue
	q.Init(n+1, 1/(2*0.9))
	for i := 0; i < n; i++ {
		q.Enqueue(Event{T: rng.ExpFloat64() * 111111, User: int32(i)})
	}
	prev := 0.0
	clock := 0.0
	const steps = 4_000_000
	for i := 0; i < steps; i++ {
		ev, ok := q.DequeueMin()
		if !ok {
			t.Fatal("queue drained")
		}
		if ev.T < prev {
			t.Fatalf("step %d: popped T=%v after T=%v (clock %g): event was skipped past its year",
				i, ev.T, prev, clock)
		}
		prev = ev.T
		if ev.T > clock {
			clock = ev.T
		}
		if i%2 == 0 {
			q.Enqueue(Event{T: clock + rng.ExpFloat64()*111111, User: int32(i)})
		} else {
			q.Enqueue(Event{T: clock + rng.ExpFloat64(), User: int32(i)})
		}
	}
	if clock < 1e6 {
		t.Fatalf("clock only reached %g; the sweep must cross 1e6 to exercise large-magnitude boundaries", clock)
	}
}
