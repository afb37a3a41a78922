package main

import "testing"

// TestPercentile pins the index arithmetic at the edges.
func TestPercentile(t *testing.T) {
	if p := percentile(nil, 0.99); p != 0 {
		t.Fatalf("empty samples: got %v", p)
	}
	one := []float64{7}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		if got := percentile(one, p); got != 7 {
			t.Fatalf("single sample p%v: got %v", p, got)
		}
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.50); got != 50 {
		t.Fatalf("p50 of 1..100: got %v", got)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Fatalf("p99 of 1..100: got %v", got)
	}
}
