// Fixture for the floateq analyzer: raw float comparisons are flagged,
// tolerance helpers, integer comparisons, constant folds, the NaN idiom,
// and annotated lines are not.
package floateq

import "math"

// ApproxEq is an approved tolerance helper: its internal exact fast path
// is the reason the exemption exists.
func ApproxEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

func compare(x, y float64, n int) bool {
	if x == y { // want "floateq"
		return true
	}
	if n == 3 { // integer comparison is exact: allowed
		return false
	}
	if x != x { // the canonical NaN probe: allowed
		return false
	}
	const a, b = 0.1, 0.2
	if a == b { // both operands constant: folded at compile time, allowed
		return false
	}
	if x == 0 { //lint:allow floateq exact sentinel for the fixture
		return true
	}
	//lint:allow floateq a standalone directive suppresses the next line
	if y == 2 {
		return false
	}
	if y == 3 { //lint:allowfloateq a longer token is another directive // want "floateq"
		return false
	}
	return x != y // want "floateq"
}

func switchTag(x float64) int {
	switch x { // want "floateq"
	case 0:
		return 0
	}
	return 1
}
