package game

import (
	"errors"
	"fmt"
	"math"

	"greednet/internal/core"
	"greednet/internal/profkey"
)

// Class is one utility class of a class-aggregated game: Count users who
// share the same utility and the same (bit-exact) rate.  The paper's
// equilibria depend only on the profile of utilities and rates, never on
// user identity, so a game with K distinct classes (K ≪ N) can be
// represented — and solved — over (class, multiplicity) pairs.
type Class struct {
	// U is the shared utility of every member.
	U core.Utility
	// Rate is the per-member rate (a starting rate before a solve, an
	// equilibrium rate after).
	Rate core.Rate
	// Count is the multiplicity, ≥ 1.
	Count int
}

// ClassGame is a game of K utility classes in canonical order (ascending
// by utility spec, then by rate — the profkey class order).  Build one
// with NewClassGame or Aggregate; the canonical ordering is what makes a
// ClassGame's Key a cache key and its Expand deterministic.
type ClassGame struct {
	// Classes is the canonical class list.
	Classes []Class
}

// ErrBadClass reports an invalid class specification.
var ErrBadClass = errors.New("game: class needs Count ≥ 1, a finite positive Rate, and a utility")

// UtilitySpec renders a utility as the deterministic string used for
// class identity and canonical ordering.  Every in-tree family
// implements fmt.Stringer; anything else falls back to its Go type and
// field rendering, which is deterministic for struct utilities.
func UtilitySpec(u core.Utility) string {
	if s, ok := u.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T%+v", u, u)
}

// NewClassGame validates, canonicalizes (sorts by (spec, rate)) and
// merges duplicate (spec, rate) classes.  Rates compare bit-exactly, so
// merging never changes the represented game.
func NewClassGame(classes []Class) (ClassGame, error) {
	for _, c := range classes {
		if c.Count < 1 || c.U == nil || !(c.Rate > 0) || math.IsInf(c.Rate, 1) {
			return ClassGame{}, ErrBadClass
		}
	}
	specs := make([]string, len(classes))
	rates := make([]float64, len(classes))
	for i, c := range classes {
		specs[i] = UtilitySpec(c.U)
		rates[i] = c.Rate
	}
	// profkey.Coalesce gives the canonical (spec, rate) order; rebuild
	// the class list along it, summing multiplicities of merged classes.
	type slot struct {
		spec string
		rate float64
	}
	byKey := make(map[slot]*Class)
	for i, c := range classes {
		k := slot{specs[i], rates[i]}
		if got, ok := byKey[k]; ok {
			got.Count += c.Count
			continue
		}
		cc := c
		byKey[k] = &cc
	}
	entries := profkey.Coalesce(specs, rates)
	out := make([]Class, 0, len(entries))
	seen := make(map[slot]bool)
	for _, e := range entries {
		k := slot{e.Spec, e.RateVal}
		if seen[k] {
			continue // Coalesce already merged multiplicities; we track our own
		}
		seen[k] = true
		out = append(out, *byKey[k])
	}
	return ClassGame{Classes: out}, nil
}

// N returns the total user count Σ Count.
func (cg ClassGame) N() int {
	n := 0
	for _, c := range cg.Classes {
		n += c.Count
	}
	return n
}

// K returns the class count.
func (cg ClassGame) K() int { return len(cg.Classes) }

// Rates returns the per-class rate vector (freshly allocated).
func (cg ClassGame) Rates() []core.Rate {
	out := make([]core.Rate, len(cg.Classes))
	for i, c := range cg.Classes {
		out[i] = c.Rate
	}
	return out
}

// Aggregate coalesces a per-user game into its class representation.
// Users belong to the same class iff their utilities render to the same
// spec AND their rates are bit-equal — an ulp of rate difference is a
// different class, so aggregation is lossless: Expand(Aggregate(us, r))
// reproduces every rate bit for bit (in canonical order).  classOf maps
// each original user index to its class index in the returned game.
func Aggregate(us core.Profile, r []core.Rate) (cg ClassGame, classOf []int, err error) {
	if len(us) != len(r) {
		return ClassGame{}, nil, ErrNoProfile
	}
	classes := make([]Class, len(us))
	for i := range us {
		if us[i] == nil || !(r[i] > 0) || math.IsInf(r[i], 1) {
			return ClassGame{}, nil, ErrBadClass
		}
		classes[i] = Class{U: us[i], Rate: r[i], Count: 1}
	}
	cg, err = NewClassGame(classes)
	if err != nil {
		return ClassGame{}, nil, err
	}
	classOf = make([]int, len(us))
	for i := range us {
		spec := UtilitySpec(us[i])
		classOf[i] = -1
		for j, c := range cg.Classes {
			if profkey.Rate(c.Rate) == profkey.Rate(r[i]) && UtilitySpec(c.U) == spec {
				classOf[i] = j
				break
			}
		}
		if classOf[i] < 0 {
			return ClassGame{}, nil, fmt.Errorf("game: aggregate lost user %d", i)
		}
	}
	return cg, classOf, nil
}

// Expand materializes the per-user game in canonical member-major order:
// class 0's Count users first, then class 1's, and so on.  Rates are
// copied bit-exactly, so Aggregate(Expand(cg)) == cg (same canonical
// classes, same bits) — the symmetry-expansion bridge the differential
// tests lean on.
func (cg ClassGame) Expand() (core.Profile, []core.Rate) {
	n := cg.N()
	us := make(core.Profile, 0, n)
	r := make([]core.Rate, 0, n)
	for _, c := range cg.Classes {
		for m := 0; m < c.Count; m++ {
			us = append(us, c.U)
			r = append(r, c.Rate)
		}
	}
	return us, r
}

// ExpandVec writes v's per-class values out to per-user positions in
// canonical member-major order (class j's value repeated Count_j times).
// dst must have cg.N() elements; it is returned for chaining.
func (cg ClassGame) ExpandVec(dst []float64, v []float64) []float64 {
	k := 0
	for j, c := range cg.Classes {
		for m := 0; m < c.Count; m++ {
			dst[k] = v[j]
			k++
		}
	}
	return dst
}

// expandFree writes a per-class Free mask out to per-user positions in
// canonical member-major order.
func (cg ClassGame) expandFree(free []bool) []bool {
	out := make([]bool, 0, cg.N())
	for j, c := range cg.Classes {
		for m := 0; m < c.Count; m++ {
			out = append(out, free[j])
		}
	}
	return out
}
