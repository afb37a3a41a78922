package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"greednet/internal/core"
	"greednet/internal/mm1"
)

// fakeClock is a mutable, goroutine-safe time source for the tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// doJSON POSTs (or GETs, with a nil body) against the handler and
// decodes the response body into out, returning the status code.
func doJSON(t *testing.T, h http.Handler, method, path string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: undecodable body %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// update admits one client and fails the test on rejection.
func update(t *testing.T, h http.Handler, id string, rate float64, spec string) UpdateResponse {
	t.Helper()
	var resp UpdateResponse
	code := doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: id, Rate: rate, Utility: spec}, &resp)
	if code != http.StatusOK {
		t.Fatalf("update %s rate %v: status %d", id, rate, code)
	}
	return resp
}

func TestUpdateSolveCongestionLoop(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Start()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	h := s.Handler()

	up := update(t, h, "a", 0.1, "linear:1,4")
	if !up.Admitted || up.Clients != 1 {
		t.Fatalf("bad update response: %+v", up)
	}
	wantBound := 0.1 / (1 - 0.1)
	if diff := up.Bound - wantBound; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("bound = %v, want %v", up.Bound, wantBound)
	}
	update(t, h, "b", 0.15, "linear:1,4")

	var sol SolveResponse
	if code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a"}, &sol); code != http.StatusOK {
		t.Fatalf("solve: status %d", code)
	}
	if !sol.Converged || len(sol.R) != 2 || len(sol.C) != 2 {
		t.Fatalf("bad solve: %+v", sol)
	}
	if sol.Clients[0] != "a" || sol.Clients[1] != "b" {
		t.Errorf("canonical client order broken: %v", sol.Clients)
	}
	if sol.Cached {
		t.Error("first solve claims cached")
	}

	// Same profile again: must be a cache hit with identical vectors.
	var sol2 SolveResponse
	if code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "b"}, &sol2); code != http.StatusOK {
		t.Fatalf("second solve: status %d", code)
	}
	if !sol2.Cached {
		t.Error("unchanged profile not served from cache")
	}
	for i := range sol.R {
		if sol.R[i] != sol2.R[i] || sol.C[i] != sol2.C[i] {
			t.Errorf("cached solve differs at %d: %v vs %v", i, sol.R[i], sol2.R[i])
		}
	}

	// The republished congestion closes the loop.
	var cg CongestionResponse
	if code := doJSON(t, h, "GET", "/v1/congestion?client=a", nil, &cg); code != http.StatusOK {
		t.Fatalf("congestion: status %d", code)
	}
	if cg.Congestion != sol.C[0] || cg.Rate != sol.R[0] {
		t.Errorf("republished point %+v does not match solve %v/%v", cg, sol.R[0], sol.C[0])
	}
	if cg.Stale {
		t.Error("fresh point reported stale")
	}

	// A rate update makes the published point stale.
	update(t, h, "a", 0.12, "")
	if code := doJSON(t, h, "GET", "/v1/congestion?client=a", nil, &cg); code != http.StatusOK {
		t.Fatalf("congestion after update: status %d", code)
	}
	if !cg.Stale {
		t.Error("point not stale after profile change")
	}

	var st Stats
	if code := doJSON(t, h, "GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.CacheHits != 1 || st.SolvesRun != 1 {
		t.Errorf("stats: %d hits, %d runs; want 1, 1", st.CacheHits, st.SolvesRun)
	}
}

func TestAdmissionRejectsPoleCrossing(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	// Single client at N·r = 1 exactly: rejected.
	var rej Rejection
	code := doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: "hog", Rate: 1.0}, &rej)
	if code != http.StatusTooManyRequests || rej.Reason != ReasonAdmission {
		t.Fatalf("N·r = 1 admitted: status %d, %+v", code, rej)
	}
	// 0.5 alone is fine (1·0.5 < 1)…
	update(t, h, "a", 0.5, "")
	// …but a second client pushes a's bound past the pole (2·0.5 = 1):
	// the NEWCOMER is rejected, whatever its own rate.
	code = doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: "b", Rate: 0.01}, &rej)
	if code != http.StatusTooManyRequests || rej.Reason != ReasonAdmission {
		t.Fatalf("join breaking an incumbent bound admitted: status %d, %+v", code, rej)
	}
	if !strings.Contains(rej.Detail, "incumbent") {
		t.Errorf("rejection does not name the incumbent: %q", rej.Detail)
	}
	// After a retreats to 0.3, b fits (2·0.3 < 1, 2·0.01 < 1).
	update(t, h, "a", 0.3, "")
	update(t, h, "b", 0.01, "")
}

func TestMalformedRejections(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	cases := []struct {
		name string
		body []byte
	}{
		{"truncated", []byte(`{"client":"a","rate":`)},
		{"not json", []byte(`hello`)},
		{"nan rate", []byte(`{"client":"a","rate":NaN}`)},
		{"negative rate", []byte(`{"client":"a","rate":-0.5}`)},
		{"zero rate", []byte(`{"client":"a","rate":0}`)},
		{"inf rate", []byte(`{"client":"a","rate":1e999}`)},
		{"no client", []byte(`{"rate":0.1}`)},
		{"bad utility", []byte(`{"client":"a","rate":0.1,"utility":"bogus:1"}`)},
		{"unknown field", []byte(`{"client":"a","rate":0.1,"rats":9}`)},
	}
	for _, tc := range cases {
		var rej Rejection
		code := doJSON(t, h, "POST", "/v1/update", tc.body, &rej)
		if code != http.StatusBadRequest || rej.Reason != ReasonMalformed {
			t.Errorf("%s: status %d reason %q, want 400 %q", tc.name, code, rej.Reason, ReasonMalformed)
		}
	}
	st := s.snapshotStats()
	if st.RejectedMalformed != int64(len(cases)) {
		t.Errorf("malformed counter %d, want %d", st.RejectedMalformed, len(cases))
	}
}

func TestTokenBucketSheds(t *testing.T) {
	clk := newFakeClock()
	s := New(Options{Burst: 3, Refill: 1, Clock: clk.now})
	h := s.Handler()
	update(t, h, "a", 0.1, "") // join spends 1 of 3 tokens
	update(t, h, "a", 0.11, "")
	update(t, h, "a", 0.12, "")
	var rej Rejection
	code := doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: "a", Rate: 0.13}, &rej)
	if code != http.StatusTooManyRequests || rej.Reason != ReasonOverload {
		t.Fatalf("empty bucket: status %d reason %q, want 429 %q", code, rej.Reason, ReasonOverload)
	}
	// One second refills one token.
	clk.advance(time.Second)
	update(t, h, "a", 0.13, "")
}

func TestSolveDeadlineSkewRejected(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	update(t, h, "a", 0.1, "")
	var rej Rejection
	code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a", DeadlineMS: -50}, &rej)
	if code != http.StatusServiceUnavailable || rej.Reason != ReasonDeadline {
		t.Fatalf("negative deadline: status %d reason %q, want 503 %q", code, rej.Reason, ReasonDeadline)
	}
}

func TestSolveNoClients(t *testing.T) {
	s := New(Options{})
	var rej Rejection
	code := doJSON(t, s.Handler(), "POST", "/v1/solve", SolveRequest{Client: "x"}, &rej)
	if code != http.StatusTooManyRequests || rej.Reason != ReasonAdmission {
		t.Fatalf("empty profile solve: status %d reason %q", code, rej.Reason)
	}
}

// blockingAlloc parks every congestion evaluation until released, so
// tests can hold a solve in flight deterministically.
type blockingAlloc struct {
	inner   core.Allocation
	release chan struct{}
}

func (b *blockingAlloc) Name() string { return "blocking(" + b.inner.Name() + ")" }
func (b *blockingAlloc) Congestion(r []core.Rate) []core.Congestion {
	<-b.release
	return b.inner.Congestion(r)
}
func (b *blockingAlloc) CongestionOf(r []core.Rate, i int) core.Congestion {
	<-b.release
	return b.inner.CongestionOf(r, i)
}

func TestQueueShedsOverloadAndDeadline(t *testing.T) {
	clk := newFakeClock()
	rel := make(chan struct{})
	s := New(Options{
		Workers:  1,
		QueueCap: 1,
		Clock:    clk.now,
		Alloc:    &blockingAlloc{inner: passAlloc{}, release: rel},
	})
	s.Start()
	h := s.Handler()
	update(t, h, "a", 0.1, "")

	type result struct {
		code int
		rej  Rejection
	}
	results := make(chan result, 3)
	solve := func(deadlineMS int64) {
		var rej Rejection
		code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a", DeadlineMS: deadlineMS}, &rej)
		results <- result{code, rej}
	}
	// First solve: dequeued by the worker, parked on the allocation.
	go solve(60_000)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.flights) == 1 && len(s.queue) == 0
	})
	// Second solve: different profile (rate changed), sits in the queue.
	update(t, h, "a", 0.11, "")
	go solve(60_000)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.queue) == 1
	})

	// Third: queue full → typed overload shed.
	update(t, h, "a", 0.12, "")
	var rej Rejection
	code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a", DeadlineMS: 60_000}, &rej)
	if code != http.StatusServiceUnavailable || rej.Reason != ReasonOverload {
		t.Fatalf("full queue: status %d reason %q, want 503 %q", code, rej.Reason, ReasonOverload)
	}

	// Raise the cap effect by aging the head instead: with the head job
	// 2s old, a 500ms-deadline request is shed with a typed deadline
	// reason even though the queue has room.
	s.mu.Lock()
	s.opt.QueueCap = 8
	s.mu.Unlock()
	clk.advance(2 * time.Second)
	code = doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a", DeadlineMS: 500}, &rej)
	if code != http.StatusServiceUnavailable || rej.Reason != ReasonDeadline {
		t.Fatalf("aged head: status %d reason %q, want 503 %q", code, rej.Reason, ReasonDeadline)
	}
	if !strings.Contains(rej.Detail, "queue head") {
		t.Errorf("deadline shed detail: %q", rej.Detail)
	}

	close(rel) // release both parked solves
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Errorf("parked solve %d: status %d %+v", i, r.code, r.rej)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	st := s.snapshotStats()
	if st.ShedOverload == 0 || st.ShedDeadline == 0 {
		t.Errorf("shed counters not bumped: %+v", st)
	}
	if st.QueueMax > 8 {
		t.Errorf("queue grew past its cap: max %d", st.QueueMax)
	}
}

// passAlloc is a trivial exact allocation for tests that never reach
// real congestion values.
type passAlloc struct{}

func (passAlloc) Name() string { return "pass" }
func (passAlloc) Congestion(r []core.Rate) []core.Congestion {
	out := make([]core.Congestion, len(r))
	for i, v := range r {
		out[i] = core.Congestion(float64(v))
	}
	return out
}
func (passAlloc) CongestionOf(r []core.Rate, i int) core.Congestion {
	return core.Congestion(float64(r[i]))
}

// panicAlloc blows up on first use: the solver containment test.
type panicAlloc struct{ passAlloc }

func (panicAlloc) CongestionOf(r []core.Rate, i int) core.Congestion { panic("hostile profile") }
func (panicAlloc) Congestion(r []core.Rate) []core.Congestion        { panic("hostile profile") }

func TestSolverPanicContained(t *testing.T) {
	s := New(Options{Workers: 1, Alloc: panicAlloc{}})
	s.Start()
	h := s.Handler()
	update(t, h, "a", 0.1, "")
	var rej Rejection
	code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a"}, &rej)
	if code != http.StatusInternalServerError || rej.Reason != ReasonPanic || rej.Status != "FAILED(panic)" {
		t.Fatalf("solver panic: status %d body %+v", code, rej)
	}
	// The worker survived: a sane allocation would now solve; at minimum
	// the server still answers and drains cleanly.
	if code := doJSON(t, h, "GET", "/healthz", nil, &HealthResponse{}); code != http.StatusOK {
		t.Errorf("healthz after panic: %d", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown after panic: %v", err)
	}
	if st := s.snapshotStats(); st.Panics == 0 {
		t.Error("panic not counted")
	}
}

func TestHandlerPanicContained(t *testing.T) {
	s := New(Options{})
	h := s.contain(func(w http.ResponseWriter, r *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/x", nil))
	var rej Rejection
	if err := json.Unmarshal(rec.Body.Bytes(), &rej); err != nil {
		t.Fatalf("bad body: %v", err)
	}
	if rec.Code != http.StatusInternalServerError || rej.Status != "FAILED(panic)" || rej.Reason != ReasonPanic {
		t.Fatalf("contained panic rendered %d %+v", rec.Code, rej)
	}
}

// An answer that cannot be encoded — here a non-finite rate — must not
// go out as an empty 200: it is refused with a typed 500.
func TestWriteJSONRefusesUnencodableAnswer(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, SolveResponse{R: []float64{math.Inf(1)}})
	var rej Rejection
	if err := json.Unmarshal(rec.Body.Bytes(), &rej); err != nil {
		t.Fatalf("%d with undecodable body %q: %v", rec.Code, rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || rej.Reason != ReasonUncertified {
		t.Fatalf("unencodable answer rendered %d %+v", rec.Code, rej)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts see only the writer under test.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWriteJSONMatchesMarshal pins writeJSON's body to json.Marshal's
// bytes plus a newline for a 128-client answer, and its cost: below the
// 2 allocations per call that json.Marshal plus an appended newline take
// on this answer (the marshalled copy and the header value), since the
// pooled encoder leaves only the header value.
func TestWriteJSONMatchesMarshal(t *testing.T) {
	resp := &SolveResponse{Gen: 7, Converged: true, Iters: 12}
	for i := 0; i < 128; i++ {
		resp.Clients = append(resp.Clients, fmt.Sprintf("c%04d", i))
		resp.R = append(resp.R, 0.001+float64(i)*1e-5)
		resp.C = append(resp.C, 0.002+float64(i)*3e-5)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	if got := rec.Body.String(); got != string(want)+"\n" {
		t.Fatalf("writeJSON body differs from json.Marshal plus newline:\n got %q\nwant %q", got, want)
	}
	if raceEnabled {
		return
	}
	w := &discardWriter{h: http.Header{}}
	if allocs := testing.AllocsPerRun(200, func() { writeJSON(w, http.StatusOK, resp) }); allocs >= 2 {
		t.Errorf("writeJSON: %v allocs per call, want fewer than 2", allocs)
	}
}

func TestWatchdogFlipsHealthOnStall(t *testing.T) {
	clk := newFakeClock()
	s := New(Options{StallAfter: time.Second, Clock: clk.now})
	h := s.Handler()
	update(t, h, "a", 0.1, "")

	if code := doJSON(t, h, "GET", "/healthz", nil, &HealthResponse{}); code != http.StatusOK {
		t.Fatalf("healthy server: %d", code)
	}
	// Plant a queued job that nobody is serving and let the stall clock
	// run out.
	s.mu.Lock()
	s.queue = append(s.queue, &job{enqueued: clk.now(), fl: &flight{done: make(chan struct{})}})
	s.mu.Unlock()
	clk.advance(1500 * time.Millisecond)
	s.checkStall(clk.now())

	var hr HealthResponse
	if code := doJSON(t, h, "GET", "/healthz", nil, &hr); code != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Fatalf("stalled healthz: %d %+v", code, hr)
	}
	var rej Rejection
	if code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a"}, &rej); code != http.StatusServiceUnavailable || rej.Reason != ReasonDraining {
		t.Fatalf("stalled solve: %d %+v", code, rej)
	}
	// Progress resumes (queue drained): health recovers.
	s.mu.Lock()
	s.queue = nil
	s.mu.Unlock()
	s.checkStall(clk.now())
	if code := doJSON(t, h, "GET", "/healthz", nil, &hr); code != http.StatusOK {
		t.Fatalf("recovered healthz: %d %+v", code, hr)
	}
}

func TestCoalescingSingleSolve(t *testing.T) {
	rel := make(chan struct{})
	s := New(Options{Workers: 2, Alloc: &blockingAlloc{inner: passAlloc{}, release: rel}})
	s.Start()
	h := s.Handler()
	update(t, h, "a", 0.1, "")
	update(t, h, "b", 0.2, "")

	const waiters = 8
	codes := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			var sol SolveResponse
			codes <- doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a", DeadlineMS: 60_000}, &sol)
		}()
	}
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.stats.Solves == waiters
	})
	close(rel)
	for i := 0; i < waiters; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Errorf("waiter %d: status %d", i, c)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	st := s.snapshotStats()
	if st.SolvesRun != 1 {
		t.Errorf("%d solver runs for %d identical requests, want exactly 1", st.SolvesRun, waiters)
	}
	if st.Coalesced != waiters-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, waiters-1)
	}
}

// solve POSTs a solve as client id and fails the test on a non-200.
func solve(t *testing.T, h http.Handler, id string) SolveResponse {
	t.Helper()
	var sol SolveResponse
	if code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: id}, &sol); code != http.StatusOK {
		t.Fatalf("solve as %s: status %d", id, code)
	}
	return sol
}

// stats reads the service counters over HTTP.
func stats(t *testing.T, h http.Handler) Stats {
	t.Helper()
	var st Stats
	if code := doJSON(t, h, "GET", "/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	return st
}

// startServer starts a one-worker service with token buckets
// effectively disabled and drains it when the test ends.
func startServer(t *testing.T) http.Handler {
	t.Helper()
	s := New(Options{Workers: 1, Burst: 1e9, Refill: 1e9})
	s.Start()
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s.Handler()
}

func TestUtilityChangeInvalidatesCache(t *testing.T) {
	h := startServer(t)
	update(t, h, "a", 0.1, "linear:1,4")
	first := solve(t, h, "a")
	// Same rate, new utility: a different game, so a new generation.
	update(t, h, "a", 0.1, "linear:2,4")
	next := solve(t, h, "a")
	if next.Cached {
		t.Error("solve after a utility change was served from the cache")
	}
	if next.Gen <= first.Gen {
		t.Errorf("generation %d after a utility change, was %d", next.Gen, first.Gen)
	}
	if st := stats(t, h); st.SolvesRun != 2 {
		t.Errorf("solves run = %d after a utility change, want 2", st.SolvesRun)
	}
}

// TestUnchangedRepostKeepsAnswer pins that re-posting the same rate and
// utility is not a change: the next solve is the generation's cached
// answer and the client's republished point stays fresh.
func TestUnchangedRepostKeepsAnswer(t *testing.T) {
	h := startServer(t)
	update(t, h, "a", 0.1, "linear:1,4")
	update(t, h, "b", 0.15, "")
	first := solve(t, h, "a")
	update(t, h, "a", 0.1, "linear:1,4")
	update(t, h, "b", 0.15, "")
	next := solve(t, h, "b")
	if !next.Cached || next.Gen != first.Gen {
		t.Errorf("solve after unchanged re-posts: cached %v, gen %d (first gen %d)", next.Cached, next.Gen, first.Gen)
	}
	var cg CongestionResponse
	if code := doJSON(t, h, "GET", "/v1/congestion?client=a", nil, &cg); code != http.StatusOK {
		t.Fatalf("congestion: status %d", code)
	}
	if cg.Stale {
		t.Error("unchanged re-post made the republished point stale")
	}
	if st := stats(t, h); st.SolvesRun != 1 || st.CacheHits != 1 {
		t.Errorf("stats: %d runs, %d hits; want 1, 1", st.SolvesRun, st.CacheHits)
	}
}

// TestConcurrentHitsShareOneBody fires concurrent solves at a
// generation that already has its answer: every one is a hit, and all
// of them write the same body, encoded once.
func TestConcurrentHitsShareOneBody(t *testing.T) {
	h := startServer(t)
	update(t, h, "a", 0.1, "linear:1,4")
	update(t, h, "b", 0.2, "log:2,1")
	first := solve(t, h, "a")
	const hitters = 8
	bodies := make(chan string, hitters)
	for i := 0; i < hitters; i++ {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(`{"client":"a"}`)))
			bodies <- rec.Body.String()
		}()
	}
	want := ""
	for i := 0; i < hitters; i++ {
		body := <-bodies
		if want == "" {
			want = body
		}
		if body != want {
			t.Fatalf("concurrent hits wrote different bodies:\n%q\n%q", body, want)
		}
	}
	var hit SolveResponse
	if err := json.Unmarshal([]byte(want), &hit); err != nil {
		t.Fatalf("hit body %q: %v", want, err)
	}
	if !hit.Cached || hit.Gen != first.Gen {
		t.Errorf("hit: cached %v, gen %d; want the cached answer of gen %d", hit.Cached, hit.Gen, first.Gen)
	}
	if st := stats(t, h); st.CacheHits != hitters || st.SolvesRun != 1 {
		t.Errorf("stats: %d hits, %d runs; want %d, 1", st.CacheHits, st.SolvesRun, hitters)
	}
}

// TestGenerationAnswersMatchFreshSolve drives a random sequence of
// joins, unchanged re-posts, rate changes, utility changes and leaves.
// After every step the generation's cached answer must equal, bit for
// bit, what a fresh server admitting the same profile solves, and only
// a real change may start a new generation.
func TestGenerationAnswersMatchFreshSolve(t *testing.T) {
	h := startServer(t)
	rng := rand.New(rand.NewSource(3))
	specs := []string{"linear:1,4", "linear:1,2", "log:2,1", "sqrt:1,2"}
	type member struct {
		rate float64
		spec string
	}
	prof := make(map[string]member)
	// At most 8 clients with rates below 0.1 keep every N·r < 1, so the
	// admission rule never refuses an operation.
	newRate := func() float64 { return 0.01 + 0.09*rng.Float64() }
	var last SolveResponse
	var seen [5]int
	joined := 0
	for step := 0; step < 40; step++ {
		ids := make([]string, 0, len(prof))
		for id := range prof {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		op := rng.Intn(5)
		if len(ids) > 0 {
			seen[op]++
		}
		switch {
		case len(ids) == 0 || (op == 0 && len(ids) < 8):
			id := fmt.Sprintf("c%02d", joined)
			joined++
			prof[id] = member{newRate(), specs[rng.Intn(len(specs))]}
			update(t, h, id, prof[id].rate, prof[id].spec)
		case op == 1:
			id := ids[rng.Intn(len(ids))]
			update(t, h, id, prof[id].rate, prof[id].spec)
		case op == 2:
			id := ids[rng.Intn(len(ids))]
			prof[id] = member{newRate(), prof[id].spec}
			update(t, h, id, prof[id].rate, "")
		case op == 3:
			id := ids[rng.Intn(len(ids))]
			spec := prof[id].spec
			for spec == prof[id].spec {
				spec = specs[rng.Intn(len(specs))]
			}
			prof[id] = member{prof[id].rate, spec}
			update(t, h, id, prof[id].rate, spec)
		default:
			id := ids[rng.Intn(len(ids))]
			delete(prof, id)
			doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: id, Leave: true}, nil)
		}
		if len(prof) == 0 {
			continue
		}
		sol := solve(t, h, "c00")
		unchanged := op == 1 && len(ids) > 0
		if unchanged != (sol.Gen == last.Gen) || (unchanged && !sol.Cached) {
			t.Fatalf("step %d (op %d): gen %d → %d, cached %v", step, op, last.Gen, sol.Gen, sol.Cached)
		}
		cached := solve(t, h, "c00")
		if !cached.Cached || cached.Gen != sol.Gen {
			t.Fatalf("step %d: repeat solve cached %v, gen %d (want %d)", step, cached.Cached, cached.Gen, sol.Gen)
		}
		fresh := startServer(t)
		for id, m := range prof {
			update(t, fresh, id, m.rate, m.spec)
		}
		want := solve(t, fresh, "c00")
		if cached.Converged != want.Converged || cached.Iters != want.Iters || len(cached.R) != len(want.R) {
			t.Fatalf("step %d: cached answer %+v, fresh %+v", step, cached, want)
		}
		for i := range want.R {
			if cached.Clients[i] != want.Clients[i] ||
				math.Float64bits(cached.R[i]) != math.Float64bits(want.R[i]) ||
				math.Float64bits(cached.C[i]) != math.Float64bits(want.C[i]) {
				t.Fatalf("step %d, client %d: cached (%s, %v, %v), fresh (%s, %v, %v)", step, i,
					cached.Clients[i], cached.R[i], cached.C[i], want.Clients[i], want.R[i], want.C[i])
			}
		}
		last = sol
	}
	for op, n := range seen {
		if n == 0 {
			t.Errorf("operation %d never ran; the sequence does not cover the contract", op)
		}
	}
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Options{Workers: 3})
	s.Start()
	h := s.Handler()
	update(t, h, "a", 0.1, "")
	if code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a"}, &SolveResponse{}); code != http.StatusOK {
		t.Fatalf("solve: %d", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Draining: every new request is a typed draining rejection.
	var rej Rejection
	if code := doJSON(t, h, "POST", "/v1/update", UpdateRequest{Client: "b", Rate: 0.1}, &rej); code != http.StatusServiceUnavailable || rej.Reason != ReasonDraining {
		t.Errorf("post-drain update: %d %+v", code, rej)
	}
	if code := doJSON(t, h, "POST", "/v1/solve", SolveRequest{Client: "a"}, &rej); code != http.StatusServiceUnavailable || rej.Reason != ReasonDraining {
		t.Errorf("post-drain solve: %d %+v", code, rej)
	}
	var hr HealthResponse
	if code := doJSON(t, h, "GET", "/healthz", nil, &hr); code != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Errorf("post-drain healthz: %d %+v", code, hr)
	}
	// All workers and the watchdog exited: goroutine count settles back.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSolveLargePopulationFeasible admits 512 clients with four utility
// specs and rates uniform in [0.2, 0.95)/N, and checks that the 2xx solve
// body is an M/M/1-feasible point (Σc = g(Σr)) inside the Theorem 8
// protection bound c_i ≤ r_i/(1−N·r_i).  At this size a client's
// feasible best-response interval is narrower than one search grid cell;
// the search once returned a "converged" all-+Inf profile there, which
// encoding/json cannot render, leaving a 200 with an empty body.  An
// N = 512 solve takes seconds under the race detector, so the solve
// timeout, the request deadline and the stall watchdog are all raised.
func TestSolveLargePopulationFeasible(t *testing.T) {
	const n = 512
	const budget = 2 * time.Minute
	s := New(Options{Workers: 1, SolveTimeout: budget, DefaultDeadline: budget, MaxDeadline: budget, StallAfter: budget})
	s.Start()
	defer func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	h := s.Handler()
	specs := []string{"linear:1,4", "linear:1,2", "log:2,1", "sqrt:1,2"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		update(t, h, fmt.Sprintf("c%04d", i), (0.2+0.75*rng.Float64())/n, specs[i%len(specs)])
	}
	var sol SolveResponse
	req := SolveRequest{Client: "c0000", DeadlineMS: budget.Milliseconds()}
	if code := doJSON(t, h, "POST", "/v1/solve", req, &sol); code != http.StatusOK {
		t.Fatalf("solve: status %d", code)
	}
	if !sol.Converged || len(sol.R) != n || len(sol.C) != n {
		t.Fatalf("bad solve: converged %v, %d rates, %d congestions", sol.Converged, len(sol.R), len(sol.C))
	}
	sr, sc := 0.0, 0.0
	for i := range sol.R {
		sr += sol.R[i]
		sc += sol.C[i]
		if bound := mm1.ProtectionBound(n, sol.R[i]); sol.C[i] > bound*(1+1e-9) {
			t.Errorf("client %s: c = %v above its protection bound %v (r = %v)", sol.Clients[i], sol.C[i], bound, sol.R[i])
		}
	}
	if !(sr < 1) {
		t.Fatalf("Σr = %v, want < 1", sr)
	}
	if g := mm1.G(sr); math.Abs(sc-g) > 1e-9*g {
		t.Errorf("Σc = %v, g(Σr) = %v", sc, g)
	}
}

// TestReadersRaceWriters drives every read-only endpoint while two
// writers loop joins, rate updates, leaves and solves, with a watchdog
// ticking every millisecond against a 4 ms stall threshold, so health,
// stats and congestion reads overlap writes of the state they read.
// Each response must carry a status from its endpoint's typed set, no
// handler may panic, and the drain must be clean.  Under -race a guarded
// field read or written without mu is a reported data race.
func TestReadersRaceWriters(t *testing.T) {
	s := New(Options{Workers: 2, StallAfter: 4 * time.Millisecond, WatchTick: time.Millisecond})
	s.Start()
	h := s.Handler()
	ids := []string{"a", "b", "c", "d", "e"}
	call := func(method, path, body string, ok ...int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		for _, code := range ok {
			if rec.Code == code {
				return
			}
		}
		t.Errorf("%s %s: status %d, want one of %v; body %s", method, path, rec.Code, ok, rec.Body.String())
	}

	const rounds = 150
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for k := 0; k < rounds; k++ {
				id := ids[(k+w)%len(ids)]
				body := fmt.Sprintf(`{"client":%q,"rate":%v}`, id, 0.01*float64(1+(k+w)%9))
				if k%4 == 3 {
					body = fmt.Sprintf(`{"client":%q,"leave":true}`, id)
				}
				call("POST", "/v1/update", body, http.StatusOK, http.StatusTooManyRequests)
				call("POST", "/v1/solve", fmt.Sprintf(`{"client":%q}`, id),
					http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable)
			}
		}()
	}
	stop := make(chan struct{})
	for _, path := range []string{"/healthz", "/v1/stats", "/v1/congestion?client=a"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				call("GET", path, "", http.StatusOK, http.StatusServiceUnavailable, http.StatusNotFound)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if st := s.snapshotStats(); st.Panics != 0 {
		t.Errorf("%d handler or solver panics", st.Panics)
	}
}
