package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Source == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if len(seen) != 21 {
		t.Errorf("expected 21 experiments, got %d", len(seen))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E1"); !ok {
		t.Error("E1 should exist")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
	if len(All()) != 21 {
		t.Error("the registry should list 21 experiments")
	}
}

// TestAllExperimentsFastMatch runs the complete suite in fast mode; every
// experiment must reproduce the paper's shape even with reduced budgets.
func TestAllExperimentsFastMatch(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			v, err := e.Run(&buf, Options{Fast: true})
			if err != nil {
				t.Fatalf("%s failed: %v\noutput:\n%s", e.ID, err, buf.String())
			}
			if !v.Match {
				t.Errorf("%s verdict mismatch: %s\noutput:\n%s", e.ID, v.Note, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, "== "+e.ID+" ") {
				t.Errorf("%s output missing banner", e.ID)
			}
			if !strings.Contains(out, "verdict:") {
				t.Errorf("%s output missing verdict line", e.ID)
			}
		})
	}
}

func TestFnumFormats(t *testing.T) {
	cases := map[float64]string{
		0: "0",
	}
	for in, want := range cases {
		if got := fnum(in); got != want {
			t.Errorf("fnum(%v) = %q, want %q", in, got, want)
		}
	}
	if got := fnum(1e-9); !strings.Contains(got, "e-") {
		t.Errorf("tiny values should use scientific notation: %q", got)
	}
	if fnum(12345678) == "12345678" {
		t.Error("huge values should be scientific")
	}
}
