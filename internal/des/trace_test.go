package des

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

func TestTracerCollectsDepartures(t *testing.T) {
	tr := NewTracer(0)
	res, err := Run(Config{
		Rates:       []float64{0.2, 0.3},
		Discipline:  &FIFO{},
		Horizon:     2e4,
		Seed:        41,
		OnDeparture: tr.Observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(tr.Records)) != res.Departures {
		t.Errorf("trace has %d records, simulator reported %d departures",
			len(tr.Records), res.Departures)
	}
	// Records are in departure order with positive delays.
	prev := 0.0
	for _, r := range tr.Records {
		if r.Depart < prev {
			t.Fatal("departure order violated")
		}
		if r.Delay() <= 0 {
			t.Fatalf("nonpositive delay %v", r.Delay())
		}
		prev = r.Depart
	}
	// Mean traced delay must agree with the simulator's own statistic.
	sum := map[int]float64{}
	cnt := map[int]int{}
	for _, r := range tr.Records {
		sum[r.User] += r.Delay()
		cnt[r.User]++
	}
	for u := 0; u < 2; u++ {
		mean := sum[u] / float64(cnt[u])
		if math.Abs(mean-res.AvgDelay[u]) > 1e-9 {
			t.Errorf("user %d traced mean delay %v, simulator %v", u, mean, res.AvgDelay[u])
		}
	}
}

func TestTracerCapacity(t *testing.T) {
	tr := NewTracer(5)
	for i := 0; i < 8; i++ {
		tr.Observe(Packet{User: 0, Arrive: float64(i)}, float64(i)+1)
	}
	if len(tr.Records) != 5 || tr.Dropped != 3 {
		t.Errorf("records=%d dropped=%d", len(tr.Records), tr.Dropped)
	}
	if !strings.Contains(tr.String(), "dropped=3") {
		t.Errorf("String() = %q", tr.String())
	}
}

func TestTracerCSV(t *testing.T) {
	tr := NewTracer(10)
	tr.Observe(Packet{User: 1, Class: 2, Arrive: 0.5}, 1.25)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines %d", len(lines))
	}
	if lines[1] != "1,2,0.5,1.25,0.75" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestTracedTailDelaysFSvsFIFO(t *testing.T) {
	// The tracer enables a claim the mean can't show: under Fair Share a
	// light user's TAIL delay is also insulated from a heavy sender.
	rates := []float64{0.1, 0.75}
	run := func(d Discipline) *Tracer {
		tr := NewTracer(200000)
		_, err := Run(Config{
			Rates:       rates,
			Discipline:  d,
			Horizon:     2e5,
			Seed:        42,
			OnDeparture: tr.Observe,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	fifo := run(&FIFO{})
	fs := run(&FairShareSplitter{})
	p99FIFO, p99FS := p99(fifo, 0), p99(fs, 0)
	if p99FS >= 0.7*p99FIFO {
		t.Errorf("FS should cut the light user's p99 delay: %v vs %v", p99FS, p99FIFO)
	}
}

// p99 is the 99th-percentile delay of one user's traced packets.
func p99(tr *Tracer, user int) float64 {
	var delays []float64
	for _, r := range tr.Records {
		if r.User == user {
			delays = append(delays, r.Delay())
		}
	}
	sort.Float64s(delays)
	return delays[len(delays)*99/100]
}
