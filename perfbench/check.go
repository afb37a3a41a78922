package main

import (
	"bytes"
	"fmt"
	"math"

	"greednet/internal/experiment"
	"greednet/internal/service"
)

// checkTol is the relative tolerance of the solver-free answer checks.
// Fair Share congestions are prefix sums of at most a few thousand
// terms, so honest rounding error stays below 1e-12 relative; 1e-9
// leaves three orders of margin and still catches any real violation.
const checkTol = 1e-9

// checkSolve verifies a 2xx SolveResponse against the paper's own
// conditions, without calling the solver that produced it:
//
//   - the response covers exactly the admitted population n;
//   - M/M/1 feasibility: Σr < 1 and Σc = g(Σr) with g(x) = x/(1−x),
//     within checkTol relative;
//   - Theorem 8's Fair Share protection bound: every user with
//     N·r_i < 1 has c_i ≤ r_i/(1−N·r_i), within checkTol relative.
func checkSolve(res *service.SolveResponse, n int) error {
	if len(res.Clients) != n || len(res.R) != n || len(res.C) != n {
		return fmt.Errorf("response covers %d ids, %d rates, %d congestions; want %d of each",
			len(res.Clients), len(res.R), len(res.C), n)
	}
	var sr, sc float64
	for i := range res.R {
		r, c := res.R[i], res.C[i]
		if !(r > 0) || math.IsInf(r, 0) || !(c >= 0) || math.IsInf(c, 0) {
			return fmt.Errorf("client %s: rate %v, congestion %v not positive and finite", res.Clients[i], r, c)
		}
		sr += r
		sc += c
	}
	if sr >= 1 {
		return fmt.Errorf("infeasible: Σr = %v ≥ 1", sr)
	}
	g := sr / (1 - sr)
	if math.Abs(sc-g) > checkTol*g {
		return fmt.Errorf("M/M/1 feasibility: Σc = %v, g(Σr) = %v (Σr = %v)", sc, g, sr)
	}
	nf := float64(n)
	for i, r := range res.R {
		if nf*r >= 1 {
			continue // the bound is infinite: nothing to protect
		}
		bound := r / (1 - nf*r)
		if res.C[i] > bound*(1+checkTol) {
			return fmt.Errorf("Theorem 8: client %s has c = %v above its protection bound r/(1−Nr) = %v (r = %v, N = %d)",
				res.Clients[i], res.C[i], bound, r, n)
		}
	}
	return nil
}

// checkCongestion verifies a 2xx CongestionResponse names the client
// asked about and carries a positive, finite operating point.
func checkCongestion(res *service.CongestionResponse, id string) error {
	if res.Client != id {
		return fmt.Errorf("congestion for %q answered for %q", id, res.Client)
	}
	if !(res.Rate > 0) || math.IsInf(res.Rate, 0) || !(res.Congestion >= 0) || math.IsInf(res.Congestion, 0) {
		return fmt.Errorf("client %s: rate %v, congestion %v not positive and finite", id, res.Rate, res.Congestion)
	}
	return nil
}

// checkSuite verifies one suite pass: every experiment ran and
// MATCHed the paper, and the rendered output is byte-identical to the
// run's first pass (ref nil means this is the first pass).
func checkSuite(out []experiment.Outcome, got, ref []byte) error {
	for _, o := range out {
		if o.Err != nil {
			return fmt.Errorf("%s failed: %v", o.Experiment.ID, o.Err)
		}
		if !o.Verdict.Match {
			return fmt.Errorf("%s: verdict MISMATCH (%s)", o.Experiment.ID, o.Verdict.Note)
		}
	}
	if ref != nil && !bytes.Equal(got, ref) {
		return fmt.Errorf("suite output differs from the first pass at byte %d", firstDiff(got, ref))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
