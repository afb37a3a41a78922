// Package service packages the game solvers behind a long-running,
// stdlib-only HTTP/JSON allocation daemon ("greedd"): thousands of
// selfish clients submit rate/utility updates, the service solves the
// induced game and republishes each client's equilibrium congestion,
// closing the control loop the paper's premises describe.
//
// Robustness is the point, not an afterthought.  Admission control is
// the paper's out-of-equilibrium protection bound (Definition 7 /
// Theorem 8): a client is admitted only while every admitted bound
// r_i/(1 − N·r_i) stays finite, so Fair Share can honor its guarantee
// whatever the admitted population later does.  Under Fair Share the
// Nash point of a profile is unique (Theorem 4), so one answer per
// profile suffices: a profile generation counter moves only on a join, a
// leave, a changed rate or a changed utility, the service keeps the
// answer of the current generation and serves every solve at that
// generation from it, and concurrent solves of a generation still being
// solved coalesce into a single SolveNashCtx call.
// Overload degrades by shedding, never by stalling: the work queue is
// bounded, enqueueing rejects the newest request once the queue's head
// has aged past the request's deadline, each client spends a token
// bucket, handlers contain panics into canonical FAILED(panic) bodies,
// and a watchdog flips the health endpoint to draining when the queue
// stops progressing.  Every rejection carries a typed machine-readable
// reason; nothing wedges a goroutine.
package service

// Rejection reasons.  Every non-2xx response body is a Rejection whose
// Reason is one of these strings, so load harnesses and clients can
// classify shed traffic without parsing prose.
const (
	// ReasonAdmission rejects a join/update that would push some admitted
	// client's protection bound r/(1−N·r) past the pole (HTTP 429).
	ReasonAdmission = "admission"
	// ReasonOverload rejects work the service has no capacity for: a full
	// work queue (503) or an exhausted per-client token bucket (429).
	ReasonOverload = "overload"
	// ReasonDeadline rejects a request whose deadline cannot be met: the
	// queue head is older than the request's budget, the budget is
	// non-positive (clock skew), or the solve itself timed out (503).
	ReasonDeadline = "deadline"
	// ReasonMalformed rejects an undecodable or invalid request body —
	// including NaN/Inf/non-positive rates (HTTP 400).
	ReasonMalformed = "malformed"
	// ReasonDraining rejects new work while the service is shutting down
	// or the watchdog has declared a stall (HTTP 503).
	ReasonDraining = "draining"
	// ReasonPanic tags a contained handler or solver panic; the body's
	// Status is "FAILED(panic)" (HTTP 500).
	ReasonPanic = "panic"
	// ReasonUncertified refuses an answer the service cannot stand
	// behind: today, a response that does not encode, such as a
	// non-finite rate or congestion (HTTP 500).
	ReasonUncertified = "uncertified"
)

// Rejection is the canonical non-2xx response body.
type Rejection struct {
	// Status is "REJECTED" for typed sheds and "FAILED(panic)" for
	// contained panics, mirroring the experiment suite's FAILED blocks.
	Status string `json:"status"`
	// Reason is one of the Reason* constants.
	Reason string `json:"reason"`
	// Detail is a human-readable explanation.
	Detail string `json:"detail,omitempty"`
}

// UpdateRequest is the POST /v1/update body: one client's rate (and
// optionally utility) update, or its departure.
type UpdateRequest struct {
	// Client identifies the sender; non-empty, at most 64 bytes.
	Client string `json:"client"`
	// Rate is the client's demanded Poisson rate, in units of the server
	// rate.  Must be positive and finite.
	Rate float64 `json:"rate"`
	// Utility is a cliutil spec ("linear:1,4", "log:2,1", …).  Empty
	// keeps the client's previous utility (or the server default on
	// first contact).  Changing it starts a new profile generation.
	Utility string `json:"utility,omitempty"`
	// Leave, when true, removes the client; Rate is ignored.
	Leave bool `json:"leave,omitempty"`
}

// UpdateResponse answers an admitted update.
type UpdateResponse struct {
	// Admitted is always true on a 2xx response.
	Admitted bool `json:"admitted"`
	// Clients is the admitted population after the update.
	Clients int `json:"clients"`
	// Bound is the client's Definition-7 protection guarantee
	// r/(1 − N·r) at the admitted population — the congestion ceiling
	// Fair Share will enforce whatever the other clients do.
	Bound float64 `json:"bound"`
}

// SolveRequest is the POST /v1/solve body: solve the current admitted
// profile (or join the in-flight solve of its generation).
type SolveRequest struct {
	// Client identifies the requester for token-bucket accounting.
	Client string `json:"client"`
	// DeadlineMS is the caller's latency budget in milliseconds.  Zero
	// means the server default; negative values are rejected with a
	// typed deadline rejection (a skewed clock cannot buy an infinite
	// budget); large values are clamped to the server maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SolveResponse reports a solved (or cache-served) equilibrium.
type SolveResponse struct {
	// Gen is the profile generation the equilibrium was solved at.  It
	// moves on every join, leave, changed rate or changed utility, and
	// only then: two answers of one server with the same Gen describe
	// the same game.
	Gen int64 `json:"gen"`
	// Cached is true when the result was the current generation's
	// answer, served without a solve.
	Cached bool `json:"cached"`
	// Coalesced is true when this request joined an in-flight solve
	// instead of enqueueing its own.
	Coalesced bool `json:"coalesced"`
	// Converged and Iters mirror game.NashResult.
	Converged bool `json:"converged"`
	Iters     int  `json:"iters"`
	// Clients lists the profile's client ids in canonical (sorted)
	// order; R and C are the equilibrium rates and congestions in the
	// same order.
	Clients []string  `json:"clients"`
	R       []float64 `json:"r"`
	C       []float64 `json:"c"`
}

// CongestionResponse is the GET /v1/congestion republication: the
// closed loop's feedback signal for one client.
type CongestionResponse struct {
	Client string `json:"client"`
	// Rate and Congestion are the client's equilibrium operating point
	// from the most recent solve that included it.
	Rate       float64 `json:"rate"`
	Congestion float64 `json:"congestion"`
	// Stale is true when the admitted profile has changed (a new
	// generation) since this point was solved.
	Stale bool `json:"stale"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	// Status is "ok", or "draining" while shutting down or stalled.
	Status string `json:"status"`
	// QueueDepth and Clients describe the live state.
	QueueDepth int `json:"queue_depth"`
	Clients    int `json:"clients"`
}

// Stats is the GET /v1/stats body: monotone counters since start.
type Stats struct {
	Updates           int64 `json:"updates"`
	Leaves            int64 `json:"leaves"`
	RejectedAdmission int64 `json:"rejected_admission"`
	RejectedMalformed int64 `json:"rejected_malformed"`

	Solves     int64 `json:"solves"`
	CacheHits  int64 `json:"cache_hits"`
	Coalesced  int64 `json:"coalesced"`
	SolvesRun  int64 `json:"solves_run"`
	SolveFails int64 `json:"solve_fails"`

	ShedOverload int64 `json:"shed_overload"`
	ShedDeadline int64 `json:"shed_deadline"`
	ShedDraining int64 `json:"shed_draining"`
	Panics       int64 `json:"panics"`

	// QueueMax is the high-water queue depth — the load harness gates on
	// it staying bounded.
	QueueMax int `json:"queue_max"`
	// QueueDepth is a point-in-time gauge.
	QueueDepth int `json:"queue_depth"`
}
