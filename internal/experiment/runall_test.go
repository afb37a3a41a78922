package experiment

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestRunAllByteIdenticalAcrossWorkers is the golden determinism check
// for the parallel suite driver: the full -fast suite must render the
// same bytes at workers=1 and workers=8, and both must match a plain
// sequential loop over the registry (the pre-pool reference behavior).
func TestRunAllByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fast suite three times")
	}
	opt := Options{Fast: true}

	var ref bytes.Buffer
	for _, e := range All() {
		if _, err := e.Run(&ref, opt); err != nil {
			t.Fatalf("sequential reference: %s: %v", e.ID, err)
		}
	}

	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		outcomes, err := RunAll(&buf, opt, workers)
		if err != nil {
			t.Fatalf("RunAll(workers=%d): %v", workers, err)
		}
		if len(outcomes) != len(All()) {
			t.Fatalf("RunAll(workers=%d): %d outcomes, want %d", workers, len(outcomes), len(All()))
		}
		for i, o := range outcomes {
			if o.Err != nil {
				t.Errorf("workers=%d: %s errored: %v", workers, o.Experiment.ID, o.Err)
			}
			if o.Experiment.ID != All()[i].ID {
				t.Errorf("workers=%d: outcome %d is %s, want registry order", workers, i, o.Experiment.ID)
			}
		}
		if !bytes.Equal(buf.Bytes(), ref.Bytes()) {
			t.Errorf("RunAll(workers=%d) output differs from the sequential reference (%d vs %d bytes)",
				workers, buf.Len(), ref.Len())
		}
	}
}

// TestSimulationFanOutIndependentOfPoolShape renders the experiments
// that spread their independent simulations over GOMAXPROCS at
// GOMAXPROCS 1 (every task inline on the caller) and at 4, and requires
// identical bytes.
func TestSimulationFanOutIndependentOfPoolShape(t *testing.T) {
	es := []Experiment{E14ClosedLoop(), E15GeneralService(), E18DKSFairQueueing(), E19Tandem()}
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		if _, err := RunSuite(&buf, es, Options{Fast: true}, 1); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return buf.Bytes()
	}
	one, four := render(1), render(4)
	if !bytes.Equal(one, four) {
		t.Errorf("output at GOMAXPROCS 4 differs from GOMAXPROCS 1 (%d vs %d bytes)", len(four), len(one))
	}
}

// failWriter fails after n bytes, exercising RunSuite's write-error path.
type failWriter struct{ left int }

var errWriterFull = errors.New("writer full")

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errWriterFull
	}
	f.left -= len(p)
	return len(p), nil
}

func TestRunSuiteReportsWriteError(t *testing.T) {
	es := All()[:2]
	outcomes, err := RunSuite(&failWriter{left: 10}, es, Options{Fast: true}, 2)
	if !errors.Is(err, errWriterFull) {
		t.Fatalf("want the writer's error, got %v", err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes should still cover all runs, got %d", len(outcomes))
	}
}

func TestRunSuiteEmpty(t *testing.T) {
	outcomes, err := RunSuite(io.Discard, nil, Options{}, 4)
	if err != nil || len(outcomes) != 0 {
		t.Fatalf("empty selection: got %v, %v", outcomes, err)
	}
}

// TestSeedOr pins the seed-resolution contract: zero means the default
// unless SeedSet marks it intentional, so -seed 0 is a pinnable seed.
func TestSeedOr(t *testing.T) {
	cases := []struct {
		opt  Options
		def  int64
		want int64
	}{
		{Options{}, 101, 101},
		{Options{Seed: 7}, 101, 7},
		{Options{Seed: 0, SeedSet: true}, 101, 0},
		{Options{Seed: 7, SeedSet: true}, 101, 7},
	}
	for _, c := range cases {
		if got := c.opt.SeedOr(c.def); got != c.want {
			t.Errorf("SeedOr(%+v, %d) = %d, want %d", c.opt, c.def, got, c.want)
		}
	}
}

// TestExplicitSeedZeroChangesOutput checks pinned seed 0 actually reaches
// an experiment: E1's output must differ between the default seed and an
// explicit seed 0 (they drive different rng streams).
func TestExplicitSeedZeroChangesOutput(t *testing.T) {
	e, ok := ByID("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	var def, pinned bytes.Buffer
	if _, err := e.Run(&def, Options{Fast: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(&pinned, Options{Fast: true, SeedSet: true}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(def.Bytes(), pinned.Bytes()) {
		t.Error("explicit seed 0 produced the default-seed output; seed 0 is not pinnable")
	}
}
