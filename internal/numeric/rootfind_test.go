package numeric

import (
	"math"
	"testing"
)

func TestBrentPolynomial(t *testing.T) {
	f := func(x float64) float64 { return (x + 3) * (x - 1) * (x - 1) * (x - 4) }
	x, err := Brent(f, 2, 5, 1e-13)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	if math.Abs(x-4) > 1e-9 {
		t.Errorf("Brent got %v, want 4", x)
	}
}

func TestBrentTranscendental(t *testing.T) {
	f := func(x float64) float64 { return math.Cos(x) - x }
	x, err := Brent(f, 0, 1, 1e-13)
	if err != nil {
		t.Fatalf("Brent: %v", err)
	}
	// Dottie number.
	if math.Abs(x-0.7390851332151607) > 1e-9 {
		t.Errorf("Brent got %v, want Dottie number", x)
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, -2, 2, 1e-12); err == nil {
		t.Error("Brent should fail without a bracket")
	}
}
