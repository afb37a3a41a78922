package selfish

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"

	"greednet/internal/core"
	"greednet/internal/randdist"
	"greednet/internal/service"
	"greednet/internal/utility"
)

// Agent is one selfish client speaking the greedd HTTP API — the
// network half of the closed control loop.  Like the simulator-backed
// climbers in this package it observes nothing but its own experienced
// service: it publishes a demanded rate, asks the service to (re)solve,
// reads back its published congestion, scores the point with its
// private utility, and hill-climbs its rate.  All randomness comes from
// the construction seed, so against a deterministic server two agents
// with the same seed trace the same trajectory.
//
// An Agent is single-goroutine; give each simulated client its own.
type Agent struct {
	id   string
	base string
	hc   *http.Client
	opt  AgentOptions

	rate   float64
	dir    float64
	best   float64
	primed bool
	rounds int
	rng    *rand.Rand
}

// AgentOptions configures one climbing client.
type AgentOptions struct {
	// Rate0 is the initial demand.  Default 0.1.
	Rate0 float64
	// Step0 is the initial climb step; it decays as 1/√round.
	// Default 0.02.
	Step0 float64
	// Lo and Hi clamp the demanded rate; defaults 0.001 and 0.95.
	Lo, Hi float64
	// Utility is the cliutil spec published to the service on first
	// contact ("" keeps the server default); U is the same utility used
	// locally to score observed points.  Default linear:1,4.
	Utility string
	U       core.Utility
	// DeadlineMS is the latency budget shipped with each solve; zero
	// means the server default.
	DeadlineMS int64
	// Seed drives the initial climb direction.
	Seed int64
}

func (o AgentOptions) withDefaults() AgentOptions {
	if o.Rate0 <= 0 {
		o.Rate0 = 0.1
	}
	if o.Step0 <= 0 {
		o.Step0 = 0.02
	}
	if o.Lo <= 0 {
		o.Lo = 0.001
	}
	if o.Hi <= 0 || o.Hi >= 1 {
		o.Hi = 0.95
	}
	if o.U == nil {
		o.U = utility.Linear{A: 1, Gamma: 4}
	}
	return o
}

// NewAgent builds a climbing client for the service at base (e.g.
// "http://127.0.0.1:8080") using hc for transport (nil means
// http.DefaultClient).
func NewAgent(base, id string, hc *http.Client, opt AgentOptions) *Agent {
	opt = opt.withDefaults()
	if hc == nil {
		hc = http.DefaultClient
	}
	a := &Agent{id: id, base: base, hc: hc, opt: opt, rate: opt.Rate0, rng: randdist.NewRand(opt.Seed)}
	a.dir = 1
	if a.rng.Intn(2) == 0 {
		a.dir = -1
	}
	return a
}

// Rate returns the agent's current demanded rate.
func (a *Agent) Rate() float64 { return a.rate }

// ID returns the client id the agent publishes under.
func (a *Agent) ID() string { return a.id }

// StepResult reports one control-loop iteration.
type StepResult struct {
	// Admitted is true when the update was accepted this step.
	Admitted bool
	// Shed is the service's rejection reason when any leg of the step
	// was shed ("" when the whole round trip succeeded).
	Shed string
	// Utility is the score of the observed operating point (NaN when
	// no point was observed this step).
	Utility float64
	// Rate is the demand the agent will publish next step.
	Rate float64
}

// Step runs one iteration of the control loop: publish the current
// rate, request a solve, observe the republished congestion, and climb.
// Admission rejections trigger a retreat (halve the demand — the
// service told this agent its greed would make someone's protection
// bound infinite); overload and deadline sheds leave the rate alone so
// the agent simply retries later, which is exactly the backpressure the
// service's shedding is designed to exert.
func (a *Agent) Step(ctx context.Context) (StepResult, error) {
	res := StepResult{Utility: math.NaN()}

	code, rej, err := a.call(ctx, "POST", "/v1/update",
		service.UpdateRequest{Client: a.id, Rate: a.rate, Utility: a.opt.Utility}, nil)
	if err != nil {
		return res, err
	}
	if code != http.StatusOK {
		res.Shed = rejReason(rej, code)
		if res.Shed == service.ReasonAdmission {
			a.rate = core.Clamp(a.rate/2, a.opt.Lo, a.opt.Hi)
		}
		res.Rate = a.rate
		return res, nil
	}
	res.Admitted = true

	// The agent observes only its republished point, so the solve's
	// equilibrium vectors are checked to be JSON but never decoded.
	code, rej, err = a.call(ctx, "POST", "/v1/solve",
		service.SolveRequest{Client: a.id, DeadlineMS: a.opt.DeadlineMS}, nil)
	if err != nil {
		return res, err
	}
	if code != http.StatusOK {
		res.Shed = rejReason(rej, code)
		res.Rate = a.rate
		return res, nil
	}

	var pt service.CongestionResponse
	code, rej, err = a.call(ctx, "GET", "/v1/congestion?client="+a.id, nil, &pt)
	if err != nil {
		return res, err
	}
	if code != http.StatusOK {
		res.Shed = rejReason(rej, code)
		res.Rate = a.rate
		return res, nil
	}

	res.Utility = a.opt.U.Value(pt.Rate, pt.Congestion)
	a.climb(res.Utility)
	res.Rate = a.rate
	return res, nil
}

// climb moves the demanded rate one decaying step in the direction the
// observed utility says is uphill: keep going while the score improves,
// turn around when it drops.
func (a *Agent) climb(v float64) {
	if a.primed && v < a.best {
		a.dir = -a.dir
	}
	a.primed = true
	a.best = v
	a.rounds++
	step := a.opt.Step0 / math.Sqrt(float64(a.rounds))
	a.rate = core.Clamp(a.rate+a.dir*step, a.opt.Lo, a.opt.Hi)
}

// call performs one JSON round trip.  Non-2xx bodies are decoded as
// typed rejections and returned alongside the status code.  A 2xx body
// is decoded into out or, with out nil, only checked to be JSON.
func (a *Agent) call(ctx context.Context, method, path string, in, out any) (int, *service.Rejection, error) {
	var body *bytes.Reader
	if in != nil {
		raw, err := json.Marshal(in)
		if err != nil {
			return 0, nil, err
		}
		body = bytes.NewReader(raw)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode/100 != 2 {
		var rej service.Rejection
		if derr := json.NewDecoder(resp.Body).Decode(&rej); derr != nil {
			return resp.StatusCode, nil, fmt.Errorf("selfish: %s %s: status %d with undecodable body: %w",
				method, path, resp.StatusCode, derr)
		}
		return resp.StatusCode, &rej, nil
	}
	if out != nil {
		if derr := json.NewDecoder(resp.Body).Decode(out); derr != nil {
			return resp.StatusCode, nil, fmt.Errorf("selfish: %s %s: bad 2xx body: %w", method, path, derr)
		}
		return resp.StatusCode, nil, nil
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("selfish: %s %s: reading 2xx body: %w", method, path, err)
	}
	if !json.Valid(raw) {
		return resp.StatusCode, nil, fmt.Errorf("selfish: %s %s: 2xx body is not JSON", method, path)
	}
	return resp.StatusCode, nil, nil
}

// rejReason extracts the typed reason from a rejection, falling back to
// the status code when the body carried none.
func rejReason(rej *service.Rejection, code int) string {
	if rej != nil && rej.Reason != "" {
		return rej.Reason
	}
	return fmt.Sprintf("http-%d", code)
}
