package des

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// TraceRecord is one completed packet's life in the simulator.
type TraceRecord struct {
	// User is the packet's source.
	User int
	// Class is the priority class it was served in (0 for class-blind
	// disciplines).
	Class int
	// Arrive and Depart are its timestamps.
	Arrive, Depart float64
}

// Delay is the packet's total sojourn time.
func (t TraceRecord) Delay() float64 { return t.Depart - t.Arrive }

// Tracer collects per-packet records, bounded by a capacity to keep long
// runs affordable; once full, further records are counted but dropped.
type Tracer struct {
	// Records holds the collected packets in departure order.
	Records []TraceRecord
	// Dropped counts records discarded after capacity was reached.
	Dropped int64
	cap     int
}

// NewTracer returns a tracer bounded to capacity records (≤ 0 means a
// default of 100000).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 100000
	}
	return &Tracer{cap: capacity}
}

// Observe implements the departure hook.
func (tr *Tracer) Observe(p Packet, depart float64) {
	if len(tr.Records) >= tr.cap {
		tr.Dropped++
		return
	}
	tr.Records = append(tr.Records, TraceRecord{
		User:   p.User,
		Class:  p.Class,
		Arrive: p.Arrive,
		Depart: depart,
	})
}

// WriteCSV emits the trace as CSV (user, class, arrive, depart, delay).
func (tr *Tracer) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"user", "class", "arrive", "depart", "delay"}); err != nil {
		return err
	}
	for _, r := range tr.Records {
		rec := []string{
			strconv.Itoa(r.User),
			strconv.Itoa(r.Class),
			strconv.FormatFloat(r.Arrive, 'g', -1, 64),
			strconv.FormatFloat(r.Depart, 'g', -1, 64),
			strconv.FormatFloat(r.Delay(), 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String summarizes the tracer.
func (tr *Tracer) String() string {
	return fmt.Sprintf("trace{records=%d dropped=%d}", len(tr.Records), tr.Dropped)
}
