package hotpath

import "testing"

// BenchmarkEventsPerSec runs the events layer's cases as sub-benchmarks,
// with the processed-events rate attached as a custom metric.  `go test
// -bench EventsPerSec ./internal/hotpath` times the same runs `greedbench
// -bench events` records in BENCH_events.json.
func BenchmarkEventsPerSec(b *testing.B) {
	for _, s := range EventScales() {
		events, err := EventRun(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EventRun(s, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// greedbench counts a case's events in one run and divides every timed
// round by that count, so each engine must process the same events on
// every run of its case (fixed configuration, fixed seed), or ns/event
// would count one workload and time another.  The cases up to 100
// sources cover all three engines; a count under the horizon would mean
// the case barely ran.
func TestEventEnginesProcessSameEvents(t *testing.T) {
	for _, s := range EventScales() {
		if len(s.Rates) > 100 {
			continue
		}
		first, err := EventRun(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, err := EventRun(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("%s: event counts diverged between runs: %d, then %d", s.Name, first, again)
		}
		if first < int64(s.Horizon) {
			t.Fatalf("%s: suspiciously few events (%d) for horizon %g", s.Name, first, s.Horizon)
		}
	}
}

// The warm event loop of every engine must be allocation-free at every
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

// Case metadata must be coherent: unique names, a known engine, RunG
// populations rising, positive ceilings, and a horizon long enough that
// per-run event counts dwarf the population (so setup cost cannot
// masquerade as steady state).
func TestEventScaleMetadata(t *testing.T) {
	names := make(map[string]bool)
	prevSources := 0
	for _, s := range EventScales() {
		if s.Name == "" || names[s.Name] {
			t.Fatalf("bad or duplicate scale name %q", s.Name)
		}
		names[s.Name] = true
		switch s.Engine {
		case "RunG":
			if len(s.Rates) <= prevSources {
				t.Fatalf("scale %s: sources %d not increasing", s.Name, len(s.Rates))
			}
			prevSources = len(s.Rates)
		case "RunSched", "RunCtx":
		default:
			t.Fatalf("scale %s: unknown engine %q", s.Name, s.Engine)
		}
		if s.NsPerEventMax <= 0 {
			t.Fatalf("scale %s: ns/event ceiling %g not positive", s.Name, s.NsPerEventMax)
		}
		if s.Horizon < float64(len(s.Rates)) {
			t.Fatalf("scale %s: horizon %g shorter than population %d", s.Name, s.Horizon, len(s.Rates))
		}
	}
}
