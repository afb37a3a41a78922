// Package staleallow exercises the framework's stale-annotation check:
// an //lint:allow that suppresses nothing is itself a finding, so the
// tree's allows cannot outlive the code they were written for.  The
// fixture is run with only floateq active: allows for analyzers outside
// the running set are left alone (they may fire on the full suite).
package staleallow

// usedAllow suppresses a real floateq finding: not stale.
func usedAllow(a, b float64) bool {
	return a == b //lint:allow floateq exact sentinel comparison
}

// usedStandaloneAllow covers the next line from a line of its own.
func usedStandaloneAllow(a, b float64) bool {
	//lint:allow floateq exact sentinel comparison
	return a == b
}

// staleAllow names a running analyzer but suppresses nothing.
func staleAllow(a, b float64) bool {
	return a < b //lint:allow floateq nothing compares floats for equality here // want "staleallow"
}

// typoAllow names no analyzer at all: always stale, whatever is running.
func typoAllow(a, b float64) bool {
	return a == b //lint:allow floatqe typo'd analyzer name // want "staleallow" "floateq"
}

// foreignAllow names an analyzer that is not running: left alone.
func foreignAllow(a, b float64) bool {
	return a < b //lint:allow detorder not running in this fixture
}
