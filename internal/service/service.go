package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"greednet/internal/alloc"
	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/utility"
)

// Options configures a Server.  The zero value is usable: every field
// has a production default.
type Options struct {
	// Alloc is the allocation function solved against; default
	// alloc.FairShare{} (the only discipline whose protection bound the
	// admission rule can honestly promise — Theorem 8).
	Alloc core.Allocation
	// DefaultUtility is the utility assumed for clients that never sent
	// a spec; default utility.Linear{A: 1, Gamma: 4}.
	DefaultUtility core.Utility
	// MaxClients caps the admitted population; default 4096.
	MaxClients int
	// QueueCap bounds the solve work queue; default 64.
	QueueCap int
	// Workers is the solve worker count; default 2.
	Workers int
	// SolveTimeout caps each Nash solve; default 2s.
	SolveTimeout time.Duration
	// DefaultDeadline is the request budget assumed when a solve request
	// carries none; default 1s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-supplied budgets; default 10s.
	MaxDeadline time.Duration
	// Burst and Refill shape the per-client token bucket: a client holds
	// at most Burst tokens, regains Refill tokens/second, and spends one
	// per request.  Defaults 32 and 16.
	Burst, Refill float64
	// StallAfter is the watchdog threshold: queued work with no job
	// completion for this long flips health to draining; default 5s.
	StallAfter time.Duration
	// WatchTick is the watchdog poll period; default StallAfter/4.
	WatchTick time.Duration
	// Nash configures the solves; default MaxIter 200, Tol 1e-6.
	Nash game.NashOptions
	// Clock substitutes a fake time source in tests; default time.Now.
	Clock func() time.Time
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Alloc == nil {
		o.Alloc = alloc.FairShare{}
	}
	if o.DefaultUtility == nil {
		o.DefaultUtility = utility.Linear{A: 1, Gamma: 4}
	}
	if o.MaxClients <= 0 {
		o.MaxClients = 4096
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.SolveTimeout <= 0 {
		o.SolveTimeout = 2 * time.Second
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = time.Second
	}
	if o.MaxDeadline <= 0 {
		o.MaxDeadline = 10 * time.Second
	}
	if o.Burst <= 0 {
		o.Burst = 32
	}
	if o.Refill <= 0 {
		o.Refill = 16
	}
	if o.StallAfter <= 0 {
		o.StallAfter = 5 * time.Second
	}
	if o.WatchTick <= 0 {
		o.WatchTick = o.StallAfter / 4
	}
	if o.Nash.MaxIter <= 0 {
		o.Nash.MaxIter = 200
	}
	if o.Nash.Tol <= 0 {
		o.Nash.Tol = 1e-6
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// client is one admitted client's state.  All fields are reached only
// through Server.clients, so Server.mu guards them transitively.
type client struct {
	rate float64
	spec string // game.UtilitySpec(u): the client's class key
	u    core.Utility

	// token bucket
	tokens     float64
	lastRefill time.Time
}

// pub is one client's republished equilibrium point.
type pub struct {
	rate, congestion float64
	gen              int64 // profile generation the point was solved at
}

// Server is the allocation service.  Create with New, wire Handler into
// an http.Server, call Start, and Shutdown to drain.
type Server struct {
	opt Options

	mu sync.Mutex
	//lint:guardedby mu
	clients map[string]*client
	//lint:guardedby mu
	queue []*job
	// flights holds the in-flight solve of each profile generation that
	// has one queued or running.
	//lint:guardedby mu
	flights map[int64]*flight
	//lint:guardedby mu
	published map[string]pub
	// gen is the profile generation: it moves only when the solve's
	// inputs really change (see bump).
	//lint:guardedby mu
	gen int64
	// answer is generation gen's solved equilibrium, or nil while it has
	// none.
	//lint:guardedby mu
	answer *answer
	//lint:guardedby mu
	stats Stats
	//lint:guardedby mu
	lastProgress time.Time
	//lint:guardedby mu
	draining bool
	//lint:guardedby mu
	stalled bool
	// panics counts contained handler and solver panics.  It is atomic,
	// not under mu, so that counting a panic never waits on mu.
	panics atomic.Int64

	// wake nudges an idle worker after an enqueue.  Capacity 1, never
	// closed: workers exit via ctx, so there is no close-ownership to
	// transfer and no send-on-closed hazard.
	wake chan struct{}

	runCtx context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New builds a stopped Server; call Start before serving traffic.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opt:          opt,
		clients:      make(map[string]*client),
		flights:      make(map[int64]*flight),
		published:    make(map[string]pub),
		lastProgress: opt.Clock(),
		wake:         make(chan struct{}, 1),
		runCtx:       ctx,
		cancel:       cancel,
	}
}

// Start launches the solve workers and the watchdog.
func (s *Server) Start() {
	for i := 0; i < s.opt.Workers; i++ {
		s.wg.Add(1)
		//lint:fanout worker drains the bounded solve queue; exits when Shutdown cancels runCtx after the queue is empty
		go s.worker(s.runCtx)
	}
	s.wg.Add(1)
	//lint:fanout watchdog flips health to draining when queued work stops progressing; exits with runCtx
	go s.watchdog(s.runCtx)
}

// Shutdown drains the service: new work is rejected with ReasonDraining,
// queued solves run to completion (or fast-fail once ctx expires), and
// every worker and the watchdog exit before it returns.  The returned
// error is nil on a clean drain and the typed core.ErrCanceled /
// core.ErrDeadline when ctx fired first.
func (s *Server) Shutdown(ctx context.Context) error {
	for {
		s.mu.Lock()
		s.draining = true
		idle := len(s.queue) == 0 && len(s.flights) == 0
		s.mu.Unlock()
		if idle || core.CtxErr(ctx) != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Cancel the run context: idle workers return immediately; with ctx
	// expired early, busy workers fast-fail the remaining queue (every
	// flight still closes, so no waiter hangs) and then return.
	s.cancel()
	s.wg.Wait()
	return core.CtxErr(ctx)
}

// watchdog periodically compares the queue's progress against the stall
// threshold and drives the stalled health flag both ways: a wedged solve
// flips /healthz to draining before clients pile onto a dead queue, and
// resumed progress flips it back.
func (s *Server) watchdog(ctx context.Context) {
	defer s.wg.Done()
	t := time.NewTicker(s.opt.WatchTick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.checkStall(s.opt.Clock())
		}
	}
}

// checkStall recomputes the stalled flag at the given instant.  Split
// from the watchdog loop so tests can drive it with a fake clock.
func (s *Server) checkStall(now time.Time) {
	s.mu.Lock()
	busy := len(s.queue) > 0 || len(s.flights) > 0
	s.stalled = busy && now.Sub(s.lastProgress) > s.opt.StallAfter
	s.mu.Unlock()
}

// snapshotStats returns the counters with the point-in-time gauge and
// the panic count filled in.
func (s *Server) snapshotStats() Stats {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = len(s.queue)
	s.mu.Unlock()
	st.Panics = s.panics.Load()
	return st
}

// health reports the health body and whether the service is accepting.
func (s *Server) health() (HealthResponse, bool) {
	s.mu.Lock()
	h := HealthResponse{Status: "ok", QueueDepth: len(s.queue), Clients: len(s.clients)}
	ok := !s.draining && !s.stalled
	s.mu.Unlock()
	if !ok {
		h.Status = "draining"
	}
	return h, ok
}
