package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"greednet/internal/cliutil"
)

// maxBodyBytes bounds request bodies; a malformed-payload injector
// sending megabytes must cost a read of at most this much.
const maxBodyBytes = 1 << 16

// Handler returns the service's HTTP mux.  Every handler runs inside
// the panic-containment wrapper, so a handler (or solver) panic renders
// a canonical FAILED(panic) body instead of killing the connection or
// the process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/update", s.contain(s.handleUpdate))
	mux.HandleFunc("POST /v1/solve", s.contain(s.handleSolve))
	mux.HandleFunc("GET /v1/congestion", s.contain(s.handleCongestion))
	mux.HandleFunc("GET /v1/stats", s.contain(s.handleStats))
	mux.HandleFunc("GET /healthz", s.contain(s.handleHealth))
	return mux
}

// contain wraps a handler with panic containment.
func (s *Server) contain(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.mu.Lock()
				s.stats.Panics++
				s.mu.Unlock()
				writeJSON(w, http.StatusInternalServerError,
					Rejection{Status: "FAILED(panic)", Reason: ReasonPanic, Detail: fmt.Sprint(v)})
			}
		}()
		h(w, r)
	}
}

// encodeBuf is a reusable response buffer with its encoder.
type encodeBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encodeBufs = sync.Pool{New: func() any {
	b := new(encodeBuf)
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// encode renders v as one JSON line — json.Marshal's bytes plus '\n' —
// into b, and returns code.  A value that does not encode (a non-finite
// rate or congestion) renders the typed 500 uncertified rejection
// instead.
func (b *encodeBuf) encode(code int, v any) int {
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		b.buf.Reset()
		// A Rejection holds only strings, so it always encodes.
		_ = b.enc.Encode(Rejection{Status: "REJECTED", Reason: ReasonUncertified, Detail: err.Error()})
		return http.StatusInternalServerError
	}
	return code
}

// answer is the solved equilibrium of the current profile generation.
// Its cache-hit body is encoded once, by the first hit, outside mu; the
// answer is dropped when the generation moves on, and its body with it.
type answer struct {
	res  *SolveResponse
	once sync.Once
	code int    // the body's status: 200, or 500 when res does not encode
	body []byte // res with Cached set, written by once
}

// hit returns the answer's cache-hit response, encoding it into a body
// of its own on first use.
func (a *answer) hit() (int, []byte) {
	a.once.Do(func() {
		out := *a.res
		out.Cached = true
		b := encodeBufs.Get().(*encodeBuf)
		a.code = b.encode(http.StatusOK, &out)
		a.body = bytes.Clone(b.buf.Bytes())
		encodeBufs.Put(b)
	})
	return a.code, a.body
}

// writeJSON renders v with the given status code.  The body is encoded
// before the header goes out: a value that does not encode answers 500
// with a typed rejection instead of an empty body under v's status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b := encodeBufs.Get().(*encodeBuf)
	defer encodeBufs.Put(b)
	code = b.encode(code, v)
	writeBody(w, code, b.buf.Bytes())
}

// writeBody sends an encoded JSON body with the given status code.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A failed write means the client hung up mid-response; there is
	// nobody left to tell.
	_, _ = w.Write(body)
}

// reject renders a typed rejection.
func reject(w http.ResponseWriter, code int, reason, detail string) {
	writeJSON(w, code, Rejection{Status: "REJECTED", Reason: reason, Detail: detail})
}

// decodeUpdate parses and validates an update body.  Validation reuses
// the cliutil rules: rates must be positive and finite (NaN/Inf smuggled
// through json.Number-ish tricks die here, not in the solver), utility
// specs must parse.
func decodeUpdate(r *http.Request) (UpdateRequest, error) {
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad update body: %w", err)
	}
	if req.Client == "" || len(req.Client) > 64 {
		return req, errors.New("client id must be 1–64 bytes")
	}
	if req.Leave {
		return req, nil
	}
	if err := cliutil.CheckRate(req.Rate); err != nil {
		return req, err
	}
	if req.Utility != "" {
		if _, err := cliutil.ParseUtility(req.Utility); err != nil {
			return req, err
		}
	}
	return req, nil
}

// handleUpdate admits (or rejects) one client's rate/utility update.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeUpdate(r)
	if err != nil {
		s.mu.Lock()
		s.stats.RejectedMalformed++
		s.mu.Unlock()
		reject(w, http.StatusBadRequest, ReasonMalformed, err.Error())
		return
	}
	now := s.opt.Clock()

	s.mu.Lock()
	if s.draining {
		s.stats.ShedDraining++
		s.mu.Unlock()
		reject(w, http.StatusServiceUnavailable, ReasonDraining, "service is draining")
		return
	}
	if c, known := s.clients[req.Client]; known && !s.takeToken(c, now) {
		s.stats.ShedOverload++
		s.mu.Unlock()
		reject(w, http.StatusTooManyRequests, ReasonOverload, "token bucket empty; slow down")
		return
	}
	if req.Leave {
		if _, known := s.clients[req.Client]; known {
			delete(s.clients, req.Client)
			delete(s.published, req.Client)
			s.bump()
			s.stats.Leaves++
		}
		n := len(s.clients)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, UpdateResponse{Admitted: true, Clients: n})
		return
	}
	ad := s.admit(req.Client, req.Rate)
	if !ad.ok {
		s.stats.RejectedAdmission++
		s.mu.Unlock()
		reject(w, http.StatusTooManyRequests, ReasonAdmission, ad.detail)
		return
	}
	c, known := s.clients[req.Client]
	if !known {
		c = &client{u: s.opt.DefaultUtility, tokens: s.opt.Burst - 1, lastRefill: now}
		s.clients[req.Client] = c
	}
	// A re-post of the same rate bits and utility leaves the game as it
	// was, and with it the current answer.
	changed := !known || math.Float64bits(c.rate) != math.Float64bits(req.Rate)
	c.rate = req.Rate
	if req.Utility != "" && req.Utility != c.spec {
		// Parse errors were rejected in decodeUpdate; this cannot fail.
		u, perr := cliutil.ParseUtility(req.Utility)
		if perr == nil {
			c.spec = req.Utility
			c.u = u
			changed = true
		}
	}
	if changed {
		s.bump()
	}
	s.stats.Updates++
	n := len(s.clients)
	s.mu.Unlock()

	writeJSON(w, http.StatusOK, UpdateResponse{Admitted: true, Clients: n, Bound: ad.bound})
}

// solveBudget maps the requested deadline to the server's policy:
// default when absent, clamped above, and rejected when non-positive
// (a skewed client clock must not buy an unbounded or instant-expired
// budget).
func (s *Server) solveBudget(req SolveRequest) (time.Duration, error) {
	if req.DeadlineMS == 0 {
		return s.opt.DefaultDeadline, nil
	}
	if req.DeadlineMS < 0 {
		return 0, fmt.Errorf("deadline %dms already expired (skewed clock?)", req.DeadlineMS)
	}
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d > s.opt.MaxDeadline {
		d = s.opt.MaxDeadline
	}
	return d, nil
}

// handleSolve serves an equilibrium for the current admitted profile:
// the generation's answer when it has one, by joining the generation's
// in-flight solve, or by enqueueing a new solve — unless the queue's age
// says the deadline cannot be met, in which case the request is shed
// immediately with a typed reason.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.mu.Lock()
		s.stats.RejectedMalformed++
		s.mu.Unlock()
		reject(w, http.StatusBadRequest, ReasonMalformed, "bad solve body: "+err.Error())
		return
	}
	budget, err := s.solveBudget(req)
	if err != nil {
		s.mu.Lock()
		s.stats.ShedDeadline++
		s.mu.Unlock()
		reject(w, http.StatusServiceUnavailable, ReasonDeadline, err.Error())
		return
	}
	now := s.opt.Clock()

	s.mu.Lock()
	if s.draining || s.stalled {
		s.stats.ShedDraining++
		s.mu.Unlock()
		reject(w, http.StatusServiceUnavailable, ReasonDraining, "service is draining")
		return
	}
	if c, known := s.clients[req.Client]; known && !s.takeToken(c, now) {
		s.stats.ShedOverload++
		s.mu.Unlock()
		reject(w, http.StatusTooManyRequests, ReasonOverload, "token bucket empty; slow down")
		return
	}
	if len(s.clients) == 0 {
		s.mu.Unlock()
		reject(w, http.StatusTooManyRequests, ReasonAdmission, "no admitted clients to solve for")
		return
	}
	s.stats.Solves++
	if a := s.answer; a != nil {
		s.stats.CacheHits++
		s.mu.Unlock()
		code, body := a.hit()
		writeBody(w, code, body)
		return
	}
	fl, inFlight := s.flights[s.gen]
	if inFlight {
		s.stats.Coalesced++
		s.mu.Unlock()
		s.awaitFlight(w, r, fl, budget, true)
		return
	}
	// No flight to join: this request pays the queue admission checks.
	if len(s.queue) >= s.opt.QueueCap {
		s.stats.ShedOverload++
		s.mu.Unlock()
		reject(w, http.StatusServiceUnavailable, ReasonOverload,
			fmt.Sprintf("solve queue full (%d deep)", s.opt.QueueCap))
		return
	}
	if len(s.queue) > 0 {
		if age := now.Sub(s.queue[0].enqueued); age > budget {
			// Reject-newest: the head has already waited longer than this
			// request's whole budget, so service within the deadline is
			// impossible; shedding now is strictly kinder than timing out
			// later with the queue even deeper.
			s.stats.ShedDeadline++
			s.mu.Unlock()
			reject(w, http.StatusServiceUnavailable, ReasonDeadline,
				fmt.Sprintf("queue head is %v old, past the %v deadline", age, budget))
			return
		}
	}
	j := s.snapshotJob(now)
	s.flights[j.gen] = j.fl
	s.queue = append(s.queue, j)
	if d := len(s.queue); d > s.stats.QueueMax {
		s.stats.QueueMax = d
	}
	fl = j.fl
	s.mu.Unlock()

	select {
	case s.wake <- struct{}{}:
	default: // a worker is already awake
	}
	s.awaitFlight(w, r, fl, budget, false)
}

// awaitFlight waits for a flight to complete within the request's
// budget and renders its result.
func (s *Server) awaitFlight(w http.ResponseWriter, r *http.Request, fl *flight, budget time.Duration, coalesced bool) {
	t := time.NewTimer(budget)
	defer t.Stop()
	select {
	case <-fl.done:
		if fl.rej != nil {
			code := http.StatusServiceUnavailable
			if fl.rej.Reason == ReasonPanic {
				code = http.StatusInternalServerError
			}
			writeJSON(w, code, *fl.rej)
			return
		}
		out := *fl.res
		out.Coalesced = coalesced
		writeJSON(w, http.StatusOK, &out)
	case <-t.C:
		s.mu.Lock()
		s.stats.ShedDeadline++
		s.mu.Unlock()
		reject(w, http.StatusServiceUnavailable, ReasonDeadline,
			fmt.Sprintf("solve still in flight after the %v deadline", budget))
	case <-r.Context().Done():
		// Client hung up; the flight itself keeps running for the
		// benefit of its other joiners and the generation's answer.
	}
}

// handleCongestion republishes one client's equilibrium point — the
// feedback half of the closed control loop.
func (s *Server) handleCongestion(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("client")
	s.mu.Lock()
	p, known := s.published[id]
	gen := s.gen
	s.mu.Unlock()
	if !known {
		reject(w, http.StatusNotFound, ReasonAdmission,
			"client has no published point (not admitted, or no solve has included it yet)")
		return
	}
	writeJSON(w, http.StatusOK, CongestionResponse{
		Client:     id,
		Rate:       p.rate,
		Congestion: p.congestion,
		Stale:      p.gen != gen,
	})
}

// handleStats serves the counters.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.snapshotStats())
}

// handleHealth serves the watchdog-driven health state: 200 ok while
// accepting, 503 draining while shutting down or stalled.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	h, ok := s.health()
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
