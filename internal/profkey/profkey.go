// Package profkey renders game profiles as canonical string keys.  A
// profile's key is a pure function of the strategic content of the game
// — utility specs and exact rates, never map iteration order or client
// identity — so two byte-equal keys name the same game and may share a
// cached solution.
//
// Two layers of canonicalization exist:
//
//   - PerUser keeps one entry per user, sorted by caller-supplied id,
//     so it distinguishes profiles by client identity.  It was
//     internal/service's solve-cache key until the service moved to
//     profile generations, which identify a profile without rendering
//     it; perfbench still times it.
//   - Classes coalesces users with identical (spec, rate) into one
//     (spec, rate, count) class, sorted by spec then rate.  Because
//     every in-tree allocation is symmetric (permutation-equivariant),
//     the solved equilibrium depends only on this multiset, and the
//     class order is exactly the canonical ordering internal/game's
//     ClassGame uses.
//
// Rates are rendered as shortest round-trip hex floats
// (strconv.FormatFloat 'x', -1), so distinct float64 values never
// collide and equal values always agree byte for byte.
package profkey

import (
	"sort"
	"strconv"
	"strings"
)

// Rate renders a float64 rate in the canonical collision-free form
// shared by every key in this package.
func Rate(r float64) string {
	return strconv.FormatFloat(r, 'x', -1, 64)
}

// PerUser renders one entry per user as "id=rate:spec;" in ascending id
// order.  ids, rates and specs are parallel; ids must be unique.  The
// inputs are not modified.
func PerUser(ids []string, rates []float64, specs []string) string {
	ord := make([]int, len(ids))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return ids[ord[a]] < ids[ord[b]] })
	var b strings.Builder
	for _, i := range ord {
		b.WriteString(ids[i])
		b.WriteByte('=')
		b.WriteString(Rate(rates[i]))
		b.WriteByte(':')
		b.WriteString(specs[i])
		b.WriteByte(';')
	}
	return b.String()
}

// ClassEntry is one coalesced utility class of a profile.
type ClassEntry struct {
	// Spec identifies the utility (a cliutil spec or utility String()).
	Spec string
	// RateVal is the per-user rate of every member, bit-exact.
	RateVal float64
	// Count is the class multiplicity.
	Count int
}

// byClass is the canonical class order: ascending by spec, then by
// rate.  Equal (spec, rate) pairs are the same class, so the order is
// total on distinct classes.
type byClass []ClassEntry

func (s byClass) Len() int      { return len(s) }
func (s byClass) Swap(a, b int) { s[a], s[b] = s[b], s[a] }
func (s byClass) Less(a, b int) bool {
	if s[a].Spec != s[b].Spec {
		return s[a].Spec < s[b].Spec
	}
	return s[a].RateVal < s[b].RateVal
}

// Coalesce groups users with identical (spec, rate) into classes in
// canonical order.  specs and rates are parallel; the inputs are not
// modified.  Rates compare bit-exactly (two rates an ulp apart are
// different classes), so coalescing never changes the game being
// solved.  NaN rates are each their own class (NaN != NaN under <, and
// the class key renders their payload bits), preserving "distinct
// profiles never collide" even for hostile inputs.
func Coalesce(specs []string, rates []float64) []ClassEntry {
	classes := make([]ClassEntry, 0, len(specs))
	for i, spec := range specs {
		classes = append(classes, ClassEntry{Spec: spec, RateVal: rates[i], Count: 1})
	}
	sort.Stable(byClass(classes))
	out := classes[:0]
	for _, c := range classes {
		if n := len(out); n > 0 && out[n-1].Spec == c.Spec && sameRate(out[n-1].RateVal, c.RateVal) {
			out[n-1].Count++
			continue
		}
		out = append(out, c)
	}
	return out
}

// sameRate is bit-exact float equality via the canonical rendering, so
// that Coalesce's merge test and the key's collision-freedom are one
// definition.  (Renders agree iff the bits agree, including the NaN
// payload; +0 and -0 render differently and stay distinct classes.)
func sameRate(a, b float64) bool {
	return Rate(a) == Rate(b)
}

// Classes renders coalesced classes as "spec@rate*count;" in canonical
// order — the class-canonical profile key.
func Classes(classes []ClassEntry) string {
	var b strings.Builder
	for _, c := range classes {
		b.WriteString(c.Spec)
		b.WriteByte('@')
		b.WriteString(Rate(c.RateVal))
		b.WriteByte('*')
		b.WriteString(strconv.Itoa(c.Count))
		b.WriteByte(';')
	}
	return b.String()
}
