package des

import (
	"errors"
	"testing"
)

// limitWriter fails once more than limit bytes have been written, standing
// in for a full disk or closed pipe.
type limitWriter struct {
	limit   int
	written int
}

var errSinkFull = errors.New("sink full")

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		if n < 0 {
			n = 0
		}
		w.written = w.limit
		return n, errSinkFull
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteCSVHeaderError(t *testing.T) {
	tr := NewTracer(10)
	if err := tr.WriteCSV(&limitWriter{limit: 0}); !errors.Is(err, errSinkFull) {
		t.Errorf("WriteCSV to a dead writer = %v, want %v", err, errSinkFull)
	}
}

func TestWriteCSVMidRecordError(t *testing.T) {
	tr := NewTracer(100000)
	for i := 0; i < 5000; i++ {
		tr.Observe(Packet{User: i % 3, Arrive: float64(i)}, float64(i)+0.5)
	}
	// Enough room for the header and some records, not the whole trace,
	// so the failure surfaces from a record write or the final flush.
	if err := tr.WriteCSV(&limitWriter{limit: 4096}); !errors.Is(err, errSinkFull) {
		t.Errorf("WriteCSV to a filling writer = %v, want %v", err, errSinkFull)
	}
}
