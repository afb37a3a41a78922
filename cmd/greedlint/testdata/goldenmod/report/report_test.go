package report

import (
	"os"
	"testing"
)

// TestDump drops Close's error: an errdrop finding in a test file.
func TestDump(t *testing.T) {
	f, err := os.Open("report.go")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	Dump(map[string]float64{"a": 1})
}
