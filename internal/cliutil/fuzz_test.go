package cliutil

import "testing"

// FuzzParseUtility pins the class-AU boundary from outside: any spec
// ParseUtility accepts is a utility that increases in throughput and
// decreases in congestion, U_r > 0 > U_c, at the interior point
// (r, c) = (0.5, 1).  A NaN parameter fails it with NaN gradients.
func FuzzParseUtility(f *testing.F) {
	for _, spec := range []string{
		"linear:1,0.2", "linear:1,4", "log:2,1", "log:0.3,1", "sqrt:1,2",
		"power:1,0.8,1.4", "power:1,2,1.5", "delay:1,2", "LINEAR:1.0,4",
		"linear:1,NaN",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		u, err := ParseUtility(spec)
		if err != nil {
			return
		}
		if ur, uc := u.Gradient(0.5, 1); !(ur > 0 && uc < 0) {
			t.Fatalf("ParseUtility(%q) = %v with U_r = %v, U_c = %v at (0.5, 1); want U_r > 0 > U_c", spec, u, ur, uc)
		}
	})
}
