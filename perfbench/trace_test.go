package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSelfTimeSubtractsChildren pins self time: a span's duration minus
// the union of its children's intervals, clipped to the parent.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "step", Start: 0, End: 100e6},
		{ID: 2, Parent: 1, Name: "http.solve", Start: 10e6, End: 60e6},
		{ID: 3, Parent: 2, Name: "service.solve", Start: 12e6, End: 58e6},
		{ID: 4, Parent: 1, Name: "http.congestion", Start: 50e6, End: 70e6}, // overlaps 2
		{ID: 5, Parent: 1, Name: "game.solve", Start: 150e6, End: 160e6},    // outside its parent
	}
	self := selfTimes(spans)
	want := map[uint64]float64{1: 40, 2: 4, 3: 46, 4: 20, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v ms, want %v", id, self[id], w)
		}
	}
}

// TestRecorderSharesTraceAndWrites checks the spans of one operation
// share its trace id, parents link up, and the file round-trips.
func TestRecorderSharesTraceAndWrites(t *testing.T) {
	rec := newRecorder()
	trace := rec.newID()
	t0 := time.Now()
	child := rec.newID()
	rec.add(trace, child, trace, "http.solve", t0, t0.Add(time.Millisecond))
	rec.addNoted(trace, 0, child, "service.solve", "ran", t0, t0.Add(time.Millisecond/2))
	rec.add(trace, trace, 0, "climb.step", t0, t0.Add(2*time.Millisecond))
	path, err := writeSpans(t.TempDir(), "x.jsonl", rec.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var got []span
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 3 {
		t.Fatalf("%d spans", len(got))
	}
	for _, s := range got {
		if s.Trace != trace {
			t.Errorf("span %q has trace %d, want %d", s.Name, s.Trace, trace)
		}
	}
	if got[1].Parent != child || got[1].Note != "ran" || got[0].Parent != trace {
		t.Errorf("parent links or note lost: %+v", got)
	}
	if s := byName(got, "service.solve", "ran", nil); s.n() != 1 {
		t.Errorf("note filter found %d spans", s.n())
	}
}

// TestNilRecorderRecordsNothing pins that untraced runs pay no tracing.
func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	if id := rec.newID(); id != 0 {
		t.Fatal(id)
	}
	rec.add(1, 2, 3, "x", time.Now(), time.Now()) // must not panic
}

// TestBenchmarkJSONMatchesDefs pins BENCHMARK.json to the metrics this
// command reports, name, unit and direction.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var want []entry
	for _, d := range metricDefs {
		if !d.perLayer {
			want = append(want, entry{d.name, d.unit, d.better})
		}
	}
	for _, d := range metricDefs {
		if d.perLayer {
			want = append(want, entry{d.name, d.unit, d.better})
		}
	}
	got := append(b.EndToEnd, b.PerLayer...)
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json declares %d metrics, the command reports %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d: BENCHMARK.json %+v, command %+v", i, got[i], want[i])
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no driver", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
}
