package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer.  The spans of one agent step,
// one request or one suite pass share Trace; Parent is the span that
// caused this one (0 for a root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Note classifies the call where its name alone does not, such as a
	// solve served from the cache.
	Note string `json:"note,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends.  A nil *recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID returns a fresh span or trace id; 0 on a nil recorder.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// since converts an instant to recorder time.
func (r *recorder) since(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// add stores a finished span.  id 0 allocates a fresh one.
func (r *recorder) add(trace, id, parent uint64, name string, start, end time.Time) {
	r.addNoted(trace, id, parent, name, "", start, end)
}

func (r *recorder) addNoted(trace, id, parent uint64, name, note string, start, end time.Time) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name, Note: note, Start: r.since(start), End: r.since(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover (children may overlap each other).
func selfTimes(spans []span) map[uint64]float64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = float64(s.End-s.Start-covered(s, kids[s.ID])) / 1e6
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// byName collects the durations (self times when self is non-nil) of
// the spans with the given name and, when note is not "*", that note.
func byName(spans []span, name, note string, self map[uint64]float64) *outcomes {
	o := &outcomes{}
	for _, s := range spans {
		if s.Name != name || (note != "*" && s.Note != note) {
			continue
		}
		if self != nil {
			o.add(self[s.ID])
		} else {
			o.add(s.ms())
		}
	}
	return o
}

// writeSpans writes the spans as JSON lines under dir and returns the
// file's path.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return "", fmt.Errorf("trace write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("trace flush: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace close: %w", err)
	}
	return path, nil
}
