package hotpath

import (
	"testing"
)

// The warm class solve must not touch the heap at the N = 10^6
// headline scales, whatever N is: the classes layer gates allocs/op at
// zero on every scale, and a plain `go test` checks the headline ones.
func TestClassSolveAllocationFree(t *testing.T) {
	for _, s := range ClassScales() {
		if s.N < 1_000_000 {
			continue
		}
		cb, err := NewClassBench(s)
		if err != nil {
			t.Fatal(err)
		}
		solve := func() {
			if _, err := cb.Solve(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(200, solve); allocs > 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", s.Name, allocs)
		}
	}
}

// TestClassBitEquality runs the differential check the classes bench
// layer gates on: class arithmetic Float64bits-equal to the exact per-user
// solver at K = N.
func TestClassBitEquality(t *testing.T) {
	if err := ClassBitEquality(); err != nil {
		t.Fatal(err)
	}
}

// TestClassScalesMetadata pins the family's invariants: unique names,
// divisible populations, positive ceilings, and at least one scale that
// carries the exact-solver comparison and one at the N = 10^6 headline.
func TestClassScalesMetadata(t *testing.T) {
	names := make(map[string]bool)
	exact, headline := false, false
	for _, s := range ClassScales() {
		if s.Name == "" || names[s.Name] {
			t.Fatalf("scale name %q empty or duplicate", s.Name)
		}
		names[s.Name] = true
		if s.K < 1 || s.N < s.K || s.N%s.K != 0 {
			t.Fatalf("scale %s: K=%d must divide N=%d", s.Name, s.K, s.N)
		}
		if s.NsCeiling <= 0 {
			t.Fatalf("scale %s: ns ceiling %v must be positive", s.Name, s.NsCeiling)
		}
		if s.ExactCompare {
			exact = true
		}
		if s.N >= 1_000_000 {
			headline = true
		}
	}
	if !exact {
		t.Fatal("no scale carries the exact-solver comparison")
	}
	if !headline {
		t.Fatal("no scale at the N=10^6 headline")
	}
}

// TestClassBenchConvergesAtHeadline checks the headline configuration
// solves to a converged equilibrium whose per-member rates sit at the
// 1/N scale — the result the README's milliseconds-at-a-million claim
// is about, not just a fast return.
func TestClassBenchConvergesAtHeadline(t *testing.T) {
	var head *ClassScale
	for _, s := range ClassScales() {
		if s.K == 8 && s.N == 1_000_000 {
			sc := s
			head = &sc
		}
	}
	if head == nil {
		t.Fatal("k8_n1e6 scale missing")
	}
	cb, err := NewClassBench(*head)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cb.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("headline solve did not converge in %d rounds", res.Iters)
	}
	for j, r := range res.R {
		if r <= 0 || r > 100.0/1e6 {
			t.Errorf("class %d equilibrium rate %g outside the per-member 1/N scale", j, r)
		}
	}
}
