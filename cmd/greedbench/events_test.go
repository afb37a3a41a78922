package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// cleanEventsReport is a report every gate accepts; tests inject one
// regression at a time into copies of it.
func cleanEventsReport() eventsReport {
	return eventsReport{
		Scales: []eventsScaleRecord{
			{Name: "n1e2", SpeedupVsHeap: 1.5, RatioFloor: 0.9, AllocsPerEvent: 0.001, AllocsPerEventBudget: 0.01},
			{Name: "n1e5", SpeedupVsHeap: 2.2, RatioFloor: 2.0, AllocsPerEvent: 0.0, AllocsPerEventBudget: 0.01},
			{Name: "n4", SpeedupVsHeap: 2.3, RatioFloor: 2.0, AllocsPerEvent: 0.0002, AllocsPerEventBudget: 0.01},
		},
		Replication: eventsReplicationRecord{
			Replications: 8, Workers: 4, HostCores: 4,
			Speedup: 3.1, SpeedupValid: true,
		},
	}
}

func TestGateEventsCleanReportPasses(t *testing.T) {
	if fails := gateEvents(cleanEventsReport()); len(fails) != 0 {
		t.Fatalf("clean report failed the gate: %v", fails)
	}
}

func TestGateEventsCatchesRatioRegression(t *testing.T) {
	for _, c := range []struct {
		scale int
		ratio float64
	}{
		{1, 1.4},  // n1e5, under the 2.0 floor
		{2, 1.63}, // n4: the bucket calendar's median ratio, under the flat mode's floor
	} {
		r := cleanEventsReport()
		name := r.Scales[c.scale].Name
		r.Scales[c.scale].SpeedupVsHeap = c.ratio
		fails := gateEvents(r)
		if len(fails) != 1 {
			t.Fatalf("%s: want exactly 1 failure, got %v", name, fails)
		}
		if !strings.Contains(fails[0], name) || !strings.Contains(fails[0], "ratio") {
			t.Fatalf("failure does not name the scale and regression kind: %q", fails[0])
		}
	}
}

func TestGateEventsCatchesAllocRegression(t *testing.T) {
	r := cleanEventsReport()
	r.Scales[0].AllocsPerEvent = 0.5 // real per-event allocation, way over noise budget
	fails := gateEvents(r)
	if len(fails) != 1 {
		t.Fatalf("want exactly 1 failure, got %v", fails)
	}
	if !strings.Contains(fails[0], "n1e2") || !strings.Contains(fails[0], "allocs/event") {
		t.Fatalf("failure does not name the scale and regression kind: %q", fails[0])
	}
}

func TestGateEventsCatchesScalingRegression(t *testing.T) {
	r := cleanEventsReport()
	r.Replication.Speedup = 1.0 // pool stopped scaling on a multi-core host
	fails := gateEvents(r)
	if len(fails) != 1 {
		t.Fatalf("want exactly 1 failure, got %v", fails)
	}
	if !strings.Contains(fails[0], "replications") {
		t.Fatalf("failure does not name the replication pass: %q", fails[0])
	}
}

func TestGateEventsIgnoresInvalidSpeedup(t *testing.T) {
	// On a single-core host Speedup measures scheduling overhead; the gate
	// must not flag it no matter how low it reads.
	r := cleanEventsReport()
	r.Replication.Speedup = 0.8
	r.Replication.SpeedupValid = false
	if fails := gateEvents(r); len(fails) != 0 {
		t.Fatalf("invalid speedup must not be gated, got %v", fails)
	}
}

func TestGateEventsReportsEveryRegression(t *testing.T) {
	r := cleanEventsReport()
	r.Scales[0].SpeedupVsHeap = 0.5
	r.Scales[1].AllocsPerEvent = 1.0
	r.Replication.Speedup = 0.9
	if fails := gateEvents(r); len(fails) != 3 {
		t.Fatalf("want all 3 injected regressions reported, got %v", fails)
	}
}

func TestGuardBenchOverwrite(t *testing.T) {
	dir := t.TempDir()
	valid := benchRecord{HostCores: 8, SpeedupValid: true}
	invalid := benchRecord{HostCores: 1, SpeedupValid: false}
	write := func(name string, rec benchRecord) string {
		t.Helper()
		path := dir + "/" + name
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Single-core run must not clobber a multi-core artifact...
	path := write("multi.json", valid)
	if err := guardBenchOverwrite(path, invalid, false); err == nil {
		t.Fatal("guard allowed a single-core run to overwrite a multi-core artifact")
	}
	// ...unless forced.
	if err := guardBenchOverwrite(path, invalid, true); err != nil {
		t.Fatalf("-force must override the guard: %v", err)
	}

	// A valid new record always wins.
	if err := guardBenchOverwrite(path, valid, false); err != nil {
		t.Fatalf("valid record must overwrite freely: %v", err)
	}

	// No prior artifact: nothing to protect.
	if err := guardBenchOverwrite(dir+"/absent.json", invalid, false); err != nil {
		t.Fatalf("missing artifact must not block: %v", err)
	}

	// Prior artifact already invalid (or pre-speedup_valid, which
	// unmarshals false): regeneration stays allowed.
	path = write("single.json", invalid)
	if err := guardBenchOverwrite(path, invalid, false); err != nil {
		t.Fatalf("invalid-over-invalid must not block: %v", err)
	}
}
