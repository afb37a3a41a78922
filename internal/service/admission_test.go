package service

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/mm1"
	"greednet/internal/randdist"
)

// TestAdmissionNeverViolatesProtectionBound drives the service boundary
// with an adversarial stream of joins, rate updates, and leaves —
// including rates crafted to sit exactly at, just under, and far past
// the protection pole — and checks after every operation that the
// admitted profile can never violate Theorem 8's guarantee:
//
//  1. every admitted client's bound r_i/(1 − N·r_i) is finite
//     (N·r_i < 1), and
//  2. the Fair Share congestion actually delivered at the admitted
//     rates keeps every protection slack nonnegative — the same
//     cross-check the E9 protection sweep performs against the paper.
func TestAdmissionNeverViolatesProtectionBound(t *testing.T) {
	s := New(Options{MaxClients: 32, Burst: 1e9, Refill: 1e9})
	h := s.Handler()
	rng := randdist.NewRand(99)
	fs := alloc.FairShare{}

	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for step := 0; step < 2000; step++ {
		id := ids[rng.Intn(len(ids))]
		var rate float64
		switch rng.Intn(6) {
		case 0: // innocuous
			rate = 0.01 + 0.1*rng.Float64()
		case 1: // hostile: far past any pole
			rate = 1 + 10*rng.Float64()
		case 2: // hostile: exactly at the single-client pole
			rate = 1.0
		case 3: // adversarial: just under the current-population pole
			n := float64(s.clientCount() + 1)
			rate = (1 - 1e-9) / n
		case 4: // adversarial: just over the current-population pole
			n := float64(s.clientCount() + 1)
			rate = (1 + 1e-9) / n
		case 5: // leave
			doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: id, Leave: true}, nil)
			assertProtected(t, s, fs)
			continue
		}
		code := doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: id, Rate: rate}, nil)
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("step %d: unexpected status %d for rate %v", step, code, rate)
		}
		assertProtected(t, s, fs)
	}
}

// clientCount reads the admitted population.
func (s *Server) clientCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

// admittedRates snapshots the admitted rate vector in canonical order.
func (s *Server) admittedRates() []core.Rate {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.sortedClientIDs()
	r := make([]core.Rate, len(ids))
	for i, id := range ids {
		r[i] = s.clients[id].rate
	}
	return r
}

// assertProtected checks both halves of the admission invariant on the
// currently admitted profile.
func assertProtected(t *testing.T, s *Server, fs alloc.FairShare) {
	t.Helper()
	r := s.admittedRates()
	n := len(r)
	if n == 0 {
		return
	}
	for i, ri := range r {
		if float64(n)*ri >= 1 {
			t.Fatalf("admitted profile %v: client %d has N·r = %v ≥ 1 (infinite bound)", r, i, float64(n)*ri)
		}
		if b := mm1.ProtectionBound(n, ri); math.IsInf(b, 1) || math.IsNaN(b) {
			t.Fatalf("admitted profile %v: client %d bound %v not finite", r, i, b)
		}
	}
	// Cross-check against the E9 claim: under Fair Share the delivered
	// congestion respects every admitted bound (slack ≥ 0).
	for i, slack := range game.ProtectionSlack(fs, r) {
		if slack < -1e-9 || math.IsNaN(slack) {
			t.Fatalf("admitted profile %v: protection slack[%d] = %v < 0", r, i, slack)
		}
	}
}

// TestAdmittedProfileAlwaysFeasible pins the corollary the solver path
// relies on: each admitted r_i < 1/N forces Σr < 1, so solves always
// start inside the M/M/1 feasibility region.
func TestAdmittedProfileAlwaysFeasible(t *testing.T) {
	s := New(Options{Burst: 1e9, Refill: 1e9})
	h := s.Handler()
	rng := randdist.NewRand(7)
	for step := 0; step < 500; step++ {
		id := string(rune('a' + rng.Intn(12)))
		doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: id, Rate: rng.Float64() * 2}, nil)
		if r := s.admittedRates(); len(r) > 0 && !core.Feasible(r) {
			t.Fatalf("step %d: admitted profile %v infeasible", step, r)
		}
	}
}

// TestAdmitJoinScanMatchesSortedScan checks the one-pass incumbent scan
// of a join against the sort-then-scan it replaced, on random
// populations: the same decision, and a rejection naming the same
// incumbent — the smallest id pushed past its pole.
func TestAdmitJoinScanMatchesSortedScan(t *testing.T) {
	rng := randdist.NewRand(11)
	var rejected, admitted int
	for trial := 0; trial < 1000; trial++ {
		s := New(Options{})
		m := 1 + rng.Intn(12)
		for i := 0; i < m; i++ {
			// Rates below 1/m: admissible now, but a join may push some
			// past 1/(N+1).
			s.clients[fmt.Sprintf("u%02d", rng.Intn(40))] = &client{rate: rng.Float64() / float64(m)}
		}
		n := len(s.clients) + 1
		r := 0.5 * rng.Float64() / float64(n) // the newcomer's own N·r < 1
		want := admitResult{ok: true, bound: r / (1 - float64(n)*r)}
		s.mu.Lock()
		for _, other := range s.sortedClientIDs() {
			if ro := s.clients[other].rate; float64(n)*ro >= 1 {
				want = admitResult{detail: fmt.Sprintf(
					"admitting a %dth client would push incumbent %q (rate %v) past its protection pole", n, other, ro)}
				break
			}
		}
		got := s.admit("newcomer", r)
		s.mu.Unlock()
		if got.ok != want.ok || got.detail != want.detail || math.Float64bits(got.bound) != math.Float64bits(want.bound) {
			t.Fatalf("trial %d: admit = %+v, sorted scan = %+v", trial, got, want)
		}
		if got.ok {
			admitted++
		} else {
			rejected++
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("%d admitted, %d rejected: the populations do not exercise both outcomes", admitted, rejected)
	}
}
