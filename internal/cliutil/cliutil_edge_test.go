package cliutil

import (
	"strings"
	"testing"
)

// Edge cases for the flag parsers: malformed floats, non-finite and
// non-positive values, empty flag values, and wrong parameter counts must
// all come back as errors, never as silently-misparsed configurations.

func TestParseRatesEdgeCases(t *testing.T) {
	bad := []struct {
		in, why string
	}{
		{"", "empty flag value"},
		{"   ", "blank flag value"},
		{",,", "only separators"},
		{"abc", "not a float"},
		{"0.1,abc", "bad entry mid-list"},
		{"-1", "negative rate"},
		{"0.1,-0.2", "negative entry mid-list"},
		{"0", "zero rate"},
		{"1e400", "overflows float64"},
		{"NaN", "NaN is not a rate"},
		{"Inf", "infinite rate"},
		{"-Inf", "negative infinite rate"},
	}
	for _, tc := range bad {
		if got, err := ParseRates(tc.in); err == nil {
			t.Errorf("ParseRates(%q) = %v, want error (%s)", tc.in, got, tc.why)
		}
	}

	// Empty entries between separators are skipped, not errors.
	got, err := ParseRates(" 0.1, ,0.2 ,")
	if err != nil || len(got) != 2 {
		t.Errorf("ParseRates with blank entries = %v, %v; want two rates", got, err)
	}
}

func TestParseUtilityEdgeCases(t *testing.T) {
	bad := []struct {
		in, why string
	}{
		{"linear", "missing colon"},
		{"linear:", "empty parameter list"},
		{"linear:1", "too few parameters"},
		{"linear:1,2,3", "too many parameters"},
		{"linear:1,abc", "bad parameter float"},
		{"power:1,2", "power needs three parameters"},
		{"bogus:1,2", "unknown family"},
		{":1,2", "empty family name"},
	}
	for _, tc := range bad {
		if got, err := ParseUtility(tc.in); err == nil {
			t.Errorf("ParseUtility(%q) = %v, want error (%s)", tc.in, got, tc.why)
		}
	}

	// Family names are case-insensitive.
	if _, err := ParseUtility("LINEAR:1,0.5"); err != nil {
		t.Errorf("ParseUtility(LINEAR:1,0.5) error: %v", err)
	}
}

// TestParseUtilityRejectsOutsideAU pins the class-AU boundary: each
// family refuses a NaN, infinite, zero or negative value in every
// parameter slot, and power refuses an exponent below 1, although each
// such spec parses as floats of the right arity.
func TestParseUtilityRejectsOutsideAU(t *testing.T) {
	good := map[string][]string{
		"linear": {"1", "0.2"},
		"log":    {"0.3", "1"},
		"sqrt":   {"1", "2"},
		"power":  {"1", "0.8", "1.4"},
		"delay":  {"1", "2"},
	}
	for family, params := range good {
		spec := family + ":" + strings.Join(params, ",")
		if _, err := ParseUtility(spec); err != nil {
			t.Fatalf("ParseUtility(%q): %v", spec, err)
		}
		for k := range params {
			for _, bad := range []string{"NaN", "Inf", "-Inf", "0", "-0.5"} {
				ps := append([]string(nil), params...)
				ps[k] = bad
				in := family + ":" + strings.Join(ps, ",")
				if got, err := ParseUtility(in); err == nil {
					t.Errorf("ParseUtility(%q) = %v, want error", in, got)
				}
			}
		}
	}
	if got, err := ParseUtility("power:1,1,0.5"); err == nil {
		t.Errorf("ParseUtility(power:1,1,0.5) = %v, want error (exponent below 1)", got)
	}
}

func TestParseProfileEdgeCases(t *testing.T) {
	for _, in := range []string{"", " ; ; ", "linear:1,2;bogus:1"} {
		if got, err := ParseProfile(in); err == nil {
			t.Errorf("ParseProfile(%q) = %v, want error", in, got)
		}
	}

	// A bad spec's error names the offending piece, not just the profile.
	_, err := ParseProfile("linear:1,2;linear:1,abc")
	if err == nil || !strings.Contains(err.Error(), "abc") {
		t.Errorf("ParseProfile error = %v, want mention of the bad parameter", err)
	}
}

func TestParseAllocEdgeCases(t *testing.T) {
	bad := []struct {
		in, why string
	}{
		{"", "empty flag value"},
		{"blend", "blend without θ"},
		{"blend:", "blend with empty θ"},
		{"blend:abc", "θ not a float"},
		{"blend:-0.1", "θ below range"},
		{"blend:1.5", "θ above range"},
		{"nosuch", "unknown allocation"},
	}
	for _, tc := range bad {
		if got, err := ParseAlloc(tc.in); err == nil {
			t.Errorf("ParseAlloc(%q) = %v, want error (%s)", tc.in, got, tc.why)
		}
	}

	// Boundary θ values and case/space-insensitive names are accepted.
	for _, in := range []string{"blend:0", "blend:1", " BLEND:0.5 ", "Fair-Share"} {
		if _, err := ParseAlloc(in); err != nil {
			t.Errorf("ParseAlloc(%q) error: %v", in, err)
		}
	}
}

func TestParseDisciplineEdgeCases(t *testing.T) {
	for _, in := range []string{"", "  ", "nosuch", "fifo2"} {
		if got, err := ParseDiscipline(in); err == nil {
			t.Errorf("ParseDiscipline(%q) = %v, want error", in, got)
		}
	}
	for _, in := range []string{"FIFO", " fifo ", "Fair-Share", "FQ"} {
		if _, err := ParseDiscipline(in); err != nil {
			t.Errorf("ParseDiscipline(%q) error: %v", in, err)
		}
	}
}
