// Package report is the other half of the golden fixture: determinism and
// concurrency violations, in a second package so the golden file exercises
// cross-package path sorting.
package report

import "fmt"

// Dump prints a map in iteration order: a detorder finding.
func Dump(m map[string]float64) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}

// Count spawns a goroutine outside internal/parallel: a fanout finding.
func Count() int {
	total := 0
	go func() {
		total++
	}()
	total = 5
	return total
}
