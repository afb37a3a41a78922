package hotpath

import "testing"

// BenchmarkEventsPerSec runs the events/sec family as sub-benchmarks:
// the calendar-queue engine and its frozen heap baseline at each
// population scale, with the processed-events rate attached as a custom
// metric.  `go test -bench EventsPerSec ./internal/hotpath` times the
// same engines `greedbench -bench events` records in BENCH_events.json.
func BenchmarkEventsPerSec(b *testing.B) {
	for _, s := range EventScales() {
		events, err := EventRun(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		bench := func(run func(EventScale, float64) (int64, error)) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := run(s, 1); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			}
		}
		b.Run("calq/"+s.Name, bench(EventRun))
		b.Run("heap/"+s.Name, bench(EventRunHeap))
	}
}

// The two engines must process identical event counts — they are pinned
// bit-identical in internal/des; this guards the benchmark pairing
// itself (same config, same seed) so the events/sec ratio stays a pure
// runtime ratio.  The two smallest scales cover both calq
// representations: n4 runs its flat slice, n1e2 its bucket calendar.
func TestEventEnginesProcessSameEvents(t *testing.T) {
	for _, s := range EventScales()[:2] {
		calq, err := EventRun(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		heap, err := EventRunHeap(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if calq != heap {
			t.Fatalf("%s: event counts diverged: calendar %d, heap %d", s.Name, calq, heap)
		}
		if calq < int64(float64(s.Horizon)) {
			t.Fatalf("%s: suspiciously few events (%d) for horizon %g", s.Name, calq, s.Horizon)
		}
	}
}

// The warm calendar-queue event loop must be allocation-free at every
// scale: the two-horizon delta cancels setup and ramp-up, so anything
// above the noise budget means a per-event allocation crept in.
func TestEventAllocsPerEventWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run allocation measurement")
	}
	for _, s := range EventScales() {
		ape, err := EventAllocsPerEvent(s)
		if err != nil {
			t.Fatal(err)
		}
		if ape > AllocsPerEventBudget {
			t.Errorf("%s: %.4f allocs/event, budget %g", s.Name, ape, AllocsPerEventBudget)
		}
	}
}

// Scale metadata must be coherent: unique names, rising populations,
// positive ratio floors, and a horizon long enough that per-run event
// counts dwarf the population (so seeding cost cannot masquerade as
// steady state).
func TestEventScaleMetadata(t *testing.T) {
	names := make(map[string]bool)
	prevSources := 0
	for _, s := range EventScales() {
		if s.Name == "" || names[s.Name] {
			t.Fatalf("bad or duplicate scale name %q", s.Name)
		}
		names[s.Name] = true
		if s.Sources <= prevSources {
			t.Fatalf("scale %s: sources %d not increasing", s.Name, s.Sources)
		}
		prevSources = s.Sources
		if s.RatioFloor <= 0 {
			t.Fatalf("scale %s: ratio floor %g not positive", s.Name, s.RatioFloor)
		}
		if s.Horizon < float64(s.Sources) {
			t.Fatalf("scale %s: horizon %g shorter than population %d", s.Name, s.Horizon, s.Sources)
		}
	}
}
