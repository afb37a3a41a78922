package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// clean returns the named layer's declared rows with every value inside
// its budget — at the budget itself, or 1 for an ungated row — as an
// artifact measured on the given core count.  Tests inject one
// regression at a time into it.
func clean(t *testing.T, name string, cores int) Artifact {
	t.Helper()
	sel, err := selectLayers(name)
	if err != nil {
		t.Fatal(err)
	}
	a := Artifact{Layer: name, Host: Host{Cores: cores, GOARCH: "amd64", Go: "go1.24"}, Rows: sel[0].rows()}
	for i, r := range a.Rows {
		switch {
		case r.Max != nil:
			a.Rows[i].Value = *r.Max
		case r.Min != nil:
			a.Rows[i].Value = *r.Min
		default:
			a.Rows[i].Value = 1
		}
	}
	return a
}

// with sets the value of the declared row (c, metric); the row must exist.
func with(t *testing.T, a Artifact, c, metric string, x float64) Artifact {
	t.Helper()
	i := slices.IndexFunc(a.Rows, func(r Row) bool { return r.Case == c && r.Metric == metric })
	if i < 0 {
		t.Fatalf("%s declares no row %s/%s", a.Layer, c, metric)
	}
	a.Rows = slices.Clone(a.Rows)
	a.Rows[i].Value = x
	return a
}

// wantFails checks that the gate reports exactly one message per given
// layer/case/metric id, each message naming its id.
func wantFails(t *testing.T, a Artifact, ids ...string) {
	t.Helper()
	fails := gate(a)
	if len(fails) != len(ids) {
		t.Fatalf("want %d failures %v, got %v", len(ids), ids, fails)
	}
	for i, id := range ids {
		if !strings.HasPrefix(fails[i], id+": ") {
			t.Errorf("failure %q does not name %s", fails[i], id)
		}
	}
}

func TestGateClassesCleanReportPasses(t *testing.T) {
	wantFails(t, clean(t, "classes", 4))
}

func TestGateClassesCatchesCeilingRegression(t *testing.T) {
	// Over the 1e7 ceiling: the solve went O(N).
	wantFails(t, with(t, clean(t, "classes", 4), "k8_n1e6", "ns_per_op", 2e7), "classes/k8_n1e6/ns_per_op")
}

func TestGateClassesCatchesAllocRegression(t *testing.T) {
	// Warm scratch started escaping.
	wantFails(t, with(t, clean(t, "classes", 4), "k8_n256", "allocs_per_op", 3), "classes/k8_n256/allocs_per_op")
}

func TestGateHotpathCatchesAllocRegression(t *testing.T) {
	wantFails(t, with(t, clean(t, "hotpath", 4), "des_run", "allocs_per_op", 30), "hotpath/des_run/allocs_per_op")
	wantFails(t, with(t, clean(t, "hotpath", 4), "fairshare_congestion_into_n64", "allocs_per_op", 1),
		"hotpath/fairshare_congestion_into_n64/allocs_per_op")
}

func TestGateClassesCatchesBitDrift(t *testing.T) {
	wantFails(t, with(t, clean(t, "classes", 4), bitEqualCase, "bit_equal", 0), "classes/"+bitEqualCase+"/bit_equal")
}

func TestGateClassesCatchesSpeedupInversion(t *testing.T) {
	// "Aggregation" slower than the exact solver it aggregates.
	wantFails(t, with(t, clean(t, "classes", 4), "k8_n256", "speedup_vs_exact", 0.8), "classes/k8_n256/speedup_vs_exact")
}

// A scale without the exact comparison declares no speedup row, and an
// artifact without one passes.
func TestGateClassesIgnoresMissingExactComparison(t *testing.T) {
	a := clean(t, "classes", 4)
	a.Rows = slices.DeleteFunc(a.Rows, func(r Row) bool { return r.Metric == "speedup_vs_exact" })
	wantFails(t, a)
}

func TestGateEventsCleanReportPasses(t *testing.T) {
	wantFails(t, clean(t, "events", 4))
	wantFails(t, clean(t, "events", 1))
}

// The RunG and RunSched values are the fastest rounds the heap engines
// recorded (see hotpath.EventScales), so an engine back on an O(log N)
// event set fails its ceiling; RunCtx, which never had one, is injected
// at twice its ceiling.
func TestGateEventsCatchesCeilingRegression(t *testing.T) {
	wantFails(t, with(t, clean(t, "events", 4), "n1e5", "ns_per_event", 916), "events/n1e5/ns_per_event")
	wantFails(t, with(t, clean(t, "events", 4), "n4", "ns_per_event", 175), "events/n4/ns_per_event")
	wantFails(t, with(t, clean(t, "events", 4), "sched_e18", "ns_per_event", 183), "events/sched_e18/ns_per_event")
	wantFails(t, with(t, clean(t, "events", 4), "ctx_e14", "ns_per_event", 400), "events/ctx_e14/ns_per_event")
}

func TestGateEventsCatchesAllocRegression(t *testing.T) {
	// Real per-event allocation, far over the noise budget.
	wantFails(t, with(t, clean(t, "events", 4), "n1e2", "allocs_per_event", 0.5), "events/n1e2/allocs_per_event")
}

func TestGateEventsCatchesScalingRegression(t *testing.T) {
	// The pool stopped scaling on a multi-core host.
	wantFails(t, with(t, clean(t, "events", 4), replicationCase, "speedup", 1.0), "events/replication/speedup")
}

// On one core the replication speedup measures scheduling overhead; the
// gate must not flag it however low it reads.
func TestGateEventsIgnoresInvalidSpeedup(t *testing.T) {
	wantFails(t, with(t, clean(t, "events", 1), replicationCase, "speedup", 0.8))
}

func TestGateEventsReportsEveryRegression(t *testing.T) {
	a := with(t, clean(t, "events", 4), "n1e2", "ns_per_event", 293)
	a = with(t, a, "n1e5", "allocs_per_event", 1.0)
	a = with(t, a, replicationCase, "speedup", 0.9)
	wantFails(t, a, "events/n1e2/ns_per_event", "events/n1e5/allocs_per_event", "events/replication/speedup")
}

func TestGateServiceCleanReportPasses(t *testing.T) {
	wantFails(t, clean(t, "service", 4))
}

func TestGateServiceCatchesQueueGrowth(t *testing.T) {
	wantFails(t, with(t, clean(t, "service", 4), serviceCase, "queue_max", serviceQueueCap+1), "service/c1000/queue_max")
}

func TestGateServiceCatchesUntypedSheds(t *testing.T) {
	wantFails(t, with(t, clean(t, "service", 4), serviceCase, "untyped_sheds", 1), "service/c1000/untyped_sheds")
}

func TestGateServiceCatchesPanics(t *testing.T) {
	wantFails(t, with(t, clean(t, "service", 4), serviceCase, "panics", 2), "service/c1000/panics")
}

func TestGateServiceCatchesDirtyDrain(t *testing.T) {
	wantFails(t, with(t, clean(t, "service", 4), serviceCase, "drain_clean", 0), "service/c1000/drain_clean")
}

func TestGateServiceCatchesLeakedGoroutines(t *testing.T) {
	wantFails(t, with(t, clean(t, "service", 4), serviceCase, "leaked_goroutines", 3), "service/c1000/leaked_goroutines")
}

// No request ever succeeded: the control loop never closed.
func TestGateServiceCatchesDeadLoop(t *testing.T) {
	wantFails(t, with(t, clean(t, "service", 4), serviceCase, "succeeded", 0), "service/c1000/succeeded")
}

func TestGateServiceCatchesEmptyRun(t *testing.T) {
	a := with(t, clean(t, "service", 4), serviceCase, "requests", 0)
	a = with(t, a, serviceCase, "succeeded", 0)
	a = with(t, a, serviceCase, "latency_samples", 0)
	wantFails(t, a, "service/c1000/requests", "service/c1000/succeeded", "service/c1000/latency_samples")
}

func TestGateServiceReportsEveryRegression(t *testing.T) {
	a := with(t, clean(t, "service", 4), serviceCase, "untyped_sheds", 5)
	a = with(t, a, serviceCase, "queue_max", 1000)
	a = with(t, a, serviceCase, "leaked_goroutines", 1)
	wantFails(t, a, "service/c1000/untyped_sheds", "service/c1000/queue_max", "service/c1000/leaked_goroutines")
}

// A value that is not a number passes no budget.
func TestGateFailsNaN(t *testing.T) {
	wantFails(t, with(t, clean(t, "classes", 4), "k8_n64", "ns_per_op", math.NaN()), "classes/k8_n64/ns_per_op")
	wantFails(t, with(t, clean(t, "events", 4), "n4", "ns_per_event", math.NaN()), "events/n4/ns_per_event")
}

// writeAt writes a cores-core artifact of the named layer into dir and
// returns its path.
func writeAt(t *testing.T, dir, name string, cores int) string {
	t.Helper()
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := writeArtifact(path, clean(t, name, cores)); err != nil {
		t.Fatal(err)
	}
	return path
}

// The guard on a core-bound layer: a one-core run must not replace a
// multi-core artifact unless forced.
func TestGuardBenchOverwrite(t *testing.T) {
	dir := t.TempDir()
	l := layers[slices.IndexFunc(layers, func(l layer) bool { return l.name == "parallel" })]
	path := writeAt(t, dir, "parallel", 8)
	if err := guard(path, l, 1, false); err == nil {
		t.Fatal("guard let a one-core run overwrite a multi-core artifact")
	}
	if err := guard(path, l, 1, true); err != nil {
		t.Fatalf("-force must override the guard: %v", err)
	}
	if err := guard(path, l, 2, false); err != nil {
		t.Fatalf("a multi-core run must overwrite freely: %v", err)
	}
	if err := guard(filepath.Join(dir, "absent.json"), l, 1, false); err != nil {
		t.Fatalf("a missing artifact must not block: %v", err)
	}
	path = writeAt(t, dir, "parallel", 1)
	if err := guard(path, l, 1, false); err != nil {
		t.Fatalf("one core over one core must not block: %v", err)
	}
}

// The one guard covers exactly the core-bound layers, and the one
// writer's artifacts read back under the schema.
func TestGuardedWriteSharedAcrossModes(t *testing.T) {
	dir := t.TempDir()
	for _, l := range layers {
		path := writeAt(t, dir, l.name, 4)
		err := guard(path, l, 1, false)
		protected := l.name == "events" || l.name == "service" || l.name == "parallel"
		if (err != nil) != protected {
			t.Errorf("%s: guard refused=%v, want %v (%v)", l.name, err != nil, protected, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 || data[len(data)-1] != '\n' {
			t.Errorf("%s: artifact missing trailing newline", l.name)
		}
		back, err := readArtifact(path)
		if err != nil {
			t.Fatalf("%s: artifact does not read back: %v", l.name, err)
		}
		if !reflect.DeepEqual(back, clean(t, l.name, 4)) {
			t.Errorf("%s: artifact changed on the round trip", l.name)
		}
	}
}

// Every committed BENCH_<layer>.json decodes under the schema (unknown
// fields rejected), and its rows and budgets are exactly the ones the
// registry declares: a case, metric or budget changed in code without
// regenerating its artifact fails here.
func TestCommittedArtifactsMatchRegistry(t *testing.T) {
	budget := func(r Row) string {
		s := fmt.Sprintf("multicore=%v", r.MultiCore)
		if r.Max != nil {
			s += fmt.Sprintf(" max=%g", *r.Max)
		}
		if r.Min != nil {
			s += fmt.Sprintf(" min=%g", *r.Min)
		}
		return s
	}
	for _, l := range layers {
		a, err := readArtifact(filepath.Join("..", "..", "BENCH_"+l.name+".json"))
		if err != nil {
			t.Errorf("%s: %v", l.name, err)
			continue
		}
		if a.Layer != l.name {
			t.Errorf("BENCH_%s.json names layer %q", l.name, a.Layer)
		}
		want := make(map[[2]string]string)
		for _, r := range l.rows() {
			k := [2]string{r.Case, r.Metric}
			if _, dup := want[k]; dup {
				t.Errorf("%s declares %s/%s twice", l.name, r.Case, r.Metric)
			}
			want[k] = budget(r)
		}
		for _, r := range a.Rows {
			k := [2]string{r.Case, r.Metric}
			b, ok := want[k]
			switch {
			case !ok:
				t.Errorf("BENCH_%s.json: row %s/%s is not declared", l.name, r.Case, r.Metric)
			case b != budget(r):
				t.Errorf("BENCH_%s.json: row %s/%s budget %s, registry %s", l.name, r.Case, r.Metric, budget(r), b)
			}
			delete(want, k)
		}
		for _, r := range l.rows() {
			if _, missing := want[[2]string{r.Case, r.Metric}]; missing {
				t.Errorf("BENCH_%s.json: declared row %s/%s is missing", l.name, r.Case, r.Metric)
			}
		}
	}
}

func TestSelectLayers(t *testing.T) {
	all, err := selectLayers("all")
	if err != nil || len(all) != len(layers) {
		t.Fatalf("all: %d layers, %v", len(all), err)
	}
	sel, err := selectLayers("service, hotpath")
	if err != nil || len(sel) != 2 || sel[0].name != "service" || sel[1].name != "hotpath" {
		t.Fatalf("list: %v, %v", sel, err)
	}
	if _, err := selectLayers("hotpath,nosuch"); err == nil {
		t.Fatal("unknown layer accepted")
	}
}
