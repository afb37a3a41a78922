package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"greednet/internal/core"
	"greednet/internal/game"
)

// flight is one in-flight solve that concurrent requests at the same
// profile generation join instead of duplicating (singleflight).  res
// and rej are written by the completing worker strictly before done is
// closed and read by waiters strictly after it, so the close is the
// happens-before edge and no lock is needed on the payload.
type flight struct {
	// done is closed exactly once, by the worker completing the job.
	done chan struct{}
	res  *SolveResponse
	rej  *Rejection
}

// job is one queued solve: an immutable snapshot of the admitted
// profile at enqueue time.
type job struct {
	ids   []string // canonical (sorted) client order
	us    core.Profile
	rates []core.Rate
	gen   int64
	// enqueued stamps the shedding clock: the head job's age is the
	// queue's age.
	enqueued time.Time
	fl       *flight
}

// sortedClientIDs returns the client ids in canonical order.  The
// explicit collect-sort walk keeps map iteration order out of every
// response vector.  mu must be held.
//
//lint:locked mu
func (s *Server) sortedClientIDs() []string {
	ids := make([]string, 0, len(s.clients))
	for id := range s.clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// bump records a real change to the solve's inputs — a join, a leave, a
// rate whose bits differ or a new utility spec — by starting a new
// profile generation.  The current answer no longer describes the
// profile, so it goes.  mu must be held.
//
//lint:locked mu
func (s *Server) bump() {
	s.gen++
	s.answer = nil
}

// snapshotJob builds the solve job for the current profile generation.
// mu must be held.
//
//lint:locked mu
func (s *Server) snapshotJob(now time.Time) *job {
	ids := s.sortedClientIDs()
	j := &job{
		ids:      ids,
		us:       make(core.Profile, len(ids)),
		rates:    make([]core.Rate, len(ids)),
		gen:      s.gen,
		enqueued: now,
		fl:       &flight{done: make(chan struct{})},
	}
	for i, id := range ids {
		c := s.clients[id]
		j.us[i] = c.u
		j.rates[i] = c.rate
	}
	return j
}

// dequeue pops the oldest queued job, or nil.
func (s *Server) dequeue() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return nil
	}
	j := s.queue[0]
	s.queue[0] = nil // release the slot's reference
	s.queue = s.queue[1:]
	return j
}

// worker drains the solve queue.  It exits only once the queue is empty
// AND ctx is done — with ctx canceled mid-drain the remaining jobs
// fast-fail (SolveNashCtx observes the canceled context immediately),
// so every queued flight still closes and no waiter is left hanging.
func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	// One workspace per worker: solver scratch is reused across every
	// job this worker runs, never shared across goroutines.
	ws := game.NewWorkspace()
	for {
		j := s.dequeue()
		if j == nil {
			select {
			case <-ctx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		s.runJob(ctx, j, ws)
	}
}

// runJob executes one solve under the per-job timeout, publishes the
// result, and closes the job's flight.  Panics out of the solver are
// contained into a FAILED(panic) rejection: one hostile profile must
// not take down the worker.
func (s *Server) runJob(ctx context.Context, j *job, ws *game.Workspace) {
	res, rej := s.solveContained(ctx, j, ws)

	s.mu.Lock()
	if res != nil {
		// Only the current generation's answer is kept: the generation
		// never returns, so an older answer could never be a hit again.
		if j.gen == s.gen {
			s.answer = &answer{res: res}
		}
		for i, id := range j.ids {
			s.published[id] = pub{rate: res.R[i], congestion: res.C[i], gen: j.gen}
		}
		s.stats.SolvesRun++
	} else {
		s.stats.SolveFails++
		if rej.Reason == ReasonPanic {
			s.stats.Panics++
		}
	}
	delete(s.flights, j.gen)
	s.lastProgress = s.opt.Clock()
	s.mu.Unlock()

	j.fl.res = res
	j.fl.rej = rej
	close(j.fl.done)
}

// solveContained runs SolveNashCtx with panic containment and maps the
// outcome to a response or a typed rejection.
func (s *Server) solveContained(ctx context.Context, j *job, ws *game.Workspace) (res *SolveResponse, rej *Rejection) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			rej = &Rejection{Status: "FAILED(panic)", Reason: ReasonPanic,
				Detail: fmt.Sprintf("solver panicked: %v", v)}
		}
	}()
	sctx, cancel := context.WithTimeout(ctx, s.opt.SolveTimeout)
	defer cancel()
	nr, err := game.SolveNashWS(sctx, ws, s.opt.Alloc, j.us, j.rates, s.opt.Nash)
	if err != nil {
		reason := ReasonDraining // canceled by shutdown
		detail := "solve canceled: " + err.Error()
		if errors.Is(err, core.ErrDeadline) {
			reason = ReasonDeadline
			detail = fmt.Sprintf("solve exceeded the %v solver timeout after %d rounds", s.opt.SolveTimeout, nr.Iters)
		}
		return nil, &Rejection{Status: "REJECTED", Reason: reason, Detail: detail}
	}
	return &SolveResponse{
		Gen:       j.gen,
		Converged: nr.Converged,
		Iters:     nr.Iters,
		Clients:   j.ids,
		R:         nr.R,
		C:         nr.C,
	}, nil
}
