package service

import (
	"fmt"
	"math"
	"time"
)

// Admission control is the paper's out-of-equilibrium protection bound
// made operational.  Theorem 8: under Fair Share every user i is
// guaranteed c_i ≤ r_i/(1 − N·r_i) whatever the other users send — but
// the guarantee is vacuous once N·r_i ≥ 1, where the bound diverges.
// The service therefore admits a rate update only while every admitted
// client's bound stays finite: the newcomer's own N·r < 1, and — because
// admitting one more client raises N for everyone — no incumbent's
// bound is pushed past the pole either.  An admitted population always
// satisfies Σr < 1 as a corollary (each r_i < 1/N), so solves start
// from a feasible point by construction.

// admitResult reports one admission decision.
type admitResult struct {
	ok     bool
	bound  float64 // r/(1−N·r) at the admitted population, when ok
	detail string  // rejection explanation, when !ok
}

// admit decides whether client id may set its rate to r.  mu must be
// held.
//
//lint:locked mu
func (s *Server) admit(id string, r float64) admitResult {
	n := len(s.clients)
	_, known := s.clients[id]
	if !known {
		if n >= s.opt.MaxClients {
			return admitResult{detail: fmt.Sprintf("population cap %d reached", s.opt.MaxClients)}
		}
		n++
	}
	// The newcomer's own bound must be finite: N·r < 1.
	if float64(n)*r >= 1 {
		return admitResult{detail: fmt.Sprintf(
			"rate %v at population %d puts N·r = %v past the protection pole (need N·r < 1)", r, n, float64(n)*r)}
	}
	// A join raises N for every incumbent; none of their bounds may
	// cross the pole.  A pure rate update keeps N, so incumbents are
	// unaffected and the scan is skipped.  The rejection names the
	// smallest offending id, found in one pass without sorting.
	if !known {
		worst := ""
		for other, c := range s.clients {
			if float64(n)*c.rate >= 1 && (worst == "" || other < worst) {
				worst = other
			}
		}
		if worst != "" {
			return admitResult{detail: fmt.Sprintf(
				"admitting a %dth client would push incumbent %q (rate %v) past its protection pole", n, worst, s.clients[worst].rate)}
		}
	}
	// Definition 7's bound r/(1−N·r), inline: the N·r < 1 guards above
	// dominate this expression, which is mm1.ProtectionBound(n, r)
	// restricted to its finite branch.
	return admitResult{ok: true, bound: r / (1 - float64(n)*r)}
}

// takeToken spends one token from the client's bucket, refilling first
// at the configured rate.  mu must be held.
//
//lint:locked mu
func (s *Server) takeToken(c *client, now time.Time) bool {
	if dt := now.Sub(c.lastRefill).Seconds(); dt > 0 {
		c.tokens = math.Min(s.opt.Burst, c.tokens+dt*s.opt.Refill)
		c.lastRefill = now
	}
	if c.tokens < 1 {
		return false
	}
	c.tokens--
	return true
}
