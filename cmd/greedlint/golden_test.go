package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current output")

// TestGoldenStandalone builds the real binary, runs it twice over the
// self-contained fixture module in testdata/goldenmod, and requires
// (a) byte-identical output across runs — the determinism contract that
// lets the listing serve as a golden file — and (b) an exact match against
// testdata/golden.txt.  The fixture module spans five packages with a
// dependency edge (solver imports alloc), so the run also proves the
// dependency-ordered fact flow of the interprocedural analyzers, and
// report's test file proves that test files are linted.
// Regenerate with:
//
//	go test ./cmd/greedlint -run TestGolden -update
func TestGoldenStandalone(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "greedlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building greedlint: %v\n%s", err, out)
	}
	modDir, err := filepath.Abs(filepath.Join("testdata", "goldenmod"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = modDir
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("greedlint ./... in %s: err = %v, want exit status 2; output:\n%s",
				modDir, err, out)
		}
		return out
	}

	first := run()
	second := run()
	if string(first) != string(second) {
		t.Fatalf("output is not deterministic across runs:\n--- first\n%s--- second\n%s",
			first, second)
	}
	golden := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create it): %v", err)
	}
	if string(first) != string(want) {
		t.Errorf("output does not match %s:\n--- got\n%s--- want\n%s", golden, first, want)
	}
}
