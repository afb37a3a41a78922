package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/experiment"
	"greednet/internal/game"
	"greednet/internal/service"
)

// solved returns a genuine Fair Share equilibrium for a small
// population, as greedd would report it.
func solved(t *testing.T) *service.SolveResponse {
	t.Helper()
	p, _ := climbInputs(7)
	n := 16
	nr, err := game.SolveNashWS(context.Background(), nil, alloc.FairShare{}, p.us[:n], p.rates[:n], serviceNash)
	if err != nil {
		t.Fatal(err)
	}
	return &service.SolveResponse{Clients: p.ids[:n], R: nr.R, C: nr.C, Converged: nr.Converged, Iters: nr.Iters}
}

func TestCheckSolveAcceptsEquilibrium(t *testing.T) {
	res := solved(t)
	if err := checkSolve(res, len(res.R)); err != nil {
		t.Fatalf("genuine equilibrium rejected: %v", err)
	}
}

// TestCheckSolveCatchesCorruption feeds the checker deliberately broken
// responses; each must be refused with the named condition.
func TestCheckSolveCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *service.SolveResponse)
		n       int // population the check expects; 0 means len(R)
		want    string
	}{
		{"congestion nudged up", func(r *service.SolveResponse) { r.C[argmax(r.C)] *= 1 + 1e-6 }, 0, "M/M/1 feasibility"},
		{"rate dropped", func(r *service.SolveResponse) { r.R[0] /= 2 }, 0, "M/M/1 feasibility"},
		{"infeasible load", func(r *service.SolveResponse) { r.R[0] = 1 }, 0, "infeasible"},
		{"infinite congestion", func(r *service.SolveResponse) { r.C[1] = math.Inf(1) }, 0, "not positive and finite"},
		{"NaN rate", func(r *service.SolveResponse) { r.R[2] = math.NaN() }, 0, "not positive and finite"},
		{"missing client", func(r *service.SolveResponse) { r.Clients = r.Clients[1:] }, 0, "want"},
		{"wrong population", func(*service.SolveResponse) {}, 17, "want 17"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := solved(t)
			tc.corrupt(res)
			n := tc.n
			if n == 0 {
				n = len(res.R)
			}
			err := checkSolve(res, n)
			if err == nil {
				t.Fatal("corrupted response accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestCheckSolveProtectionBound builds a profile whose Σc = g(Σr)
// exactly but one user is charged past r/(1−N·r): only Theorem 8 can
// refuse it.
func TestCheckSolveProtectionBound(t *testing.T) {
	r := []float64{0.1, 0.2, 0.3}
	sr := 0.6
	g := sr / (1 - sr)
	small := r[0] / (1 - 3*r[0]) // user 0's bound
	c := []float64{small * 1.5, 0, 0}
	c[1] = (g - c[0]) / 2
	c[2] = g - c[0] - c[1]
	res := &service.SolveResponse{Clients: []string{"a", "b", "c"}, R: r, C: c}
	err := checkSolve(res, 3)
	if err == nil || !strings.Contains(err.Error(), "Theorem 8") {
		t.Fatalf("bound violation not caught: %v", err)
	}
}

func TestCheckCongestion(t *testing.T) {
	ok := &service.CongestionResponse{Client: "a", Rate: 0.1, Congestion: 0.2}
	if err := checkCongestion(ok, "a"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*service.CongestionResponse{
		{Client: "b", Rate: 0.1, Congestion: 0.2},
		{Client: "a", Rate: 0, Congestion: 0.2},
		{Client: "a", Rate: 0.1, Congestion: math.Inf(1)},
	} {
		if checkCongestion(bad, "a") == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}

func TestCheckSuite(t *testing.T) {
	e := experiment.Experiment{ID: "E0"}
	good := []experiment.Outcome{{Experiment: e, Verdict: experiment.Verdict{Match: true}}}
	if err := checkSuite(good, []byte("x"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := checkSuite(good, []byte("xy"), []byte("xz")); err == nil || !strings.Contains(err.Error(), "byte 1") {
		t.Fatalf("byte drift not caught: %v", err)
	}
	mismatch := []experiment.Outcome{{Experiment: e, Verdict: experiment.Verdict{Match: false, Note: "shape"}}}
	if err := checkSuite(mismatch, nil, nil); err == nil || !strings.Contains(err.Error(), "MISMATCH") {
		t.Fatalf("mismatch not caught: %v", err)
	}
	failed := []experiment.Outcome{{Experiment: e, Err: errors.New("boom")}}
	if err := checkSuite(failed, nil, nil); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("failure not caught: %v", err)
	}
}

// TestCheckFailureExitsNonZero drives the command with a workload whose
// answer check fails: the failure must count in failed, mark the final
// JSON line incorrect and make the exit code 1.
func TestCheckFailureExitsNonZero(t *testing.T) {
	workloads["corrupt"] = func(cfg config) (*result, error) {
		res := newResult(cfg)
		for _, d := range metricDefs {
			res.metrics.set(d.name, 1)
		}
		res.attempted = 10
		bad := solved(t)
		for i := range bad.C {
			bad.C[i] *= 2
		}
		if err := checkSolve(bad, len(bad.R)); err != nil {
			res.failOp(err.Error())
		}
		return res, nil
	}
	defer delete(workloads, "corrupt")
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "corrupt", "--seconds", "1"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1 (stderr %q)", code, errOut.String())
	}
	last := lastLine(out.String())
	if !strings.HasPrefix(last, `{"correct":false,"attempted":10,"failed":1,`) {
		t.Fatalf("final line %q", last)
	}
	if !strings.Contains(out.String(), "CHECK FAILED: M/M/1 feasibility") {
		t.Fatalf("check failure not reported:\n%s", out.String())
	}
}

func argmax(xs []float64) int {
	k := 0
	for i, x := range xs {
		if x > xs[k] {
			k = i
		}
	}
	return k
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}
