package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"greednet/internal/core"
	"greednet/internal/game"
	"greednet/internal/profkey"
)

// flight is one in-flight solve that concurrent requests for the same
// canonical profile join instead of duplicating (singleflight).  res and
// rej are written by the completing worker strictly before done is
// closed and read by waiters strictly after it, so the close is the
// happens-before edge and no lock is needed on the payload.
type flight struct {
	// done is closed exactly once, by the worker completing the job.
	//lint:chanowner runJob
	done chan struct{}
	res  *SolveResponse
	rej  *Rejection
}

// job is one queued solve: an immutable snapshot of the admitted
// profile at enqueue time.
type job struct {
	key     string
	ids     []string // canonical (sorted) client order
	us      core.Profile
	rates   []core.Rate
	specs   []string // utility specs, parallel to ids (class storage)
	profGen int64
	// enqueued stamps the shedding clock: the head job's age is the
	// queue's age.
	enqueued time.Time
	fl       *flight
}

// sortedClientIDs returns the client ids in canonical order.  The
// explicit collect-sort walk keeps map iteration order out of every
// output (cache keys, response vectors).  mu must be held.
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

// canonicalKey renders the admitted profile as the flight/cache key via
// the shared profkey rendering: client ids in sorted order, each with
// its exact rate (hex float, so distinct profiles never collide) and
// utility spec.  Utility changes therefore change the key — the cache
// can never serve a solution from a stale utility.  mu must be held.
//
//lint:locked mu
func (s *Server) canonicalKey(ids []string) string {
	rates := make([]float64, len(ids))
	specs := make([]string, len(ids))
	for i, id := range ids {
		c := s.clients[id]
		rates[i] = c.rate
		specs[i] = c.spec
	}
	return profkey.PerUser(ids, rates, specs)
}

// snapshotJob builds the solve job for the current profile, whose sorted
// client ids and canonical key the caller has already built under the
// same hold of mu; the job keeps ids.  mu must be held.
//
//lint:locked mu
func (s *Server) snapshotJob(now time.Time, ids []string, key string) *job {
	j := &job{
		key:      key,
		ids:      ids,
		us:       make(core.Profile, len(ids)),
		rates:    make([]core.Rate, len(ids)),
		specs:    make([]string, len(ids)),
		profGen:  s.profGen,
		enqueued: now,
		fl:       &flight{done: make(chan struct{})},
	}
	for i, id := range ids {
		c := s.clients[id]
		j.us[i] = c.u
		j.rates[i] = c.rate
		j.specs[i] = c.spec
	}
	return j
}

// classSolution is one solved game stored under its class-canonical key:
// member equilibrium values grouped per (spec, rate) class, so a later
// profile with the same multiset of (spec, rate) — under any client ids
// — rebuilds a full response without re-solving.  Every in-tree
// allocation is permutation-equivariant, so the solution genuinely
// depends only on the multiset.
type classSolution struct {
	classes []profkey.ClassEntry
	// rs and cs hold, per class, its members' solved rates and
	// congestions in solve order.
	rs, cs    [][]float64
	converged bool
	iters     int
}

// classIndex finds the class of (spec, rate) in canonical entries, or
// −1.  Rates match bit-exactly, the same test profkey.Coalesce merges
// by.
func classIndex(classes []profkey.ClassEntry, spec string, rate float64) int {
	for j := range classes {
		if classes[j].Spec == spec &&
			math.Float64bits(classes[j].RateVal) == math.Float64bits(rate) {
			return j
		}
	}
	return -1
}

// classStore files a solved response under the job's class-canonical
// key with FIFO eviction, sharing CacheCap with the per-user cache.
// mu must be held.
//
//lint:locked mu
func (s *Server) classStore(j *job, res *SolveResponse) {
	rates := make([]float64, len(j.ids))
	for i, r := range j.rates {
		rates[i] = float64(r)
	}
	classes := profkey.Coalesce(j.specs, rates)
	key := profkey.Classes(classes)
	sol := &classSolution{
		classes:   classes,
		rs:        make([][]float64, len(classes)),
		cs:        make([][]float64, len(classes)),
		converged: res.Converged,
		iters:     res.Iters,
	}
	for i := range j.ids {
		slot := classIndex(classes, j.specs[i], rates[i])
		if slot < 0 {
			return // cannot happen: classes were built from these inputs
		}
		sol.rs[slot] = append(sol.rs[slot], res.R[i])
		sol.cs[slot] = append(sol.cs[slot], res.C[i])
	}
	if _, dup := s.classCache[key]; !dup {
		for len(s.classCache) >= s.opt.CacheCap && len(s.classOrder) > 0 {
			delete(s.classCache, s.classOrder[0])
			s.classOrder = s.classOrder[1:]
		}
		s.classOrder = append(s.classOrder, key)
	}
	s.classCache[key] = sol
}

// classServe rebuilds a response for the current client set from the
// class cache, if a game with the same multiset of (spec, rate) was
// solved before.  perUserKey becomes the response's Key so the caller
// sees its own canonical identity.  mu must be held.
//
//lint:locked mu
func (s *Server) classServe(ids []string, perUserKey string) (*SolveResponse, bool) {
	rates := make([]float64, len(ids))
	specs := make([]string, len(ids))
	for i, id := range ids {
		c := s.clients[id]
		rates[i] = c.rate
		specs[i] = c.spec
	}
	sol, ok := s.classCache[profkey.ClassKey(specs, rates)]
	if !ok {
		return nil, false
	}
	out := &SolveResponse{
		Key:       perUserKey,
		Converged: sol.converged,
		Iters:     sol.iters,
		Clients:   ids,
		R:         make([]float64, len(ids)),
		C:         make([]float64, len(ids)),
	}
	// Members of a class receive the class's solved values in sorted-id
	// order — the multiset of (rate, congestion) pairs is preserved
	// exactly, and key equality guarantees the cursors stay in bounds.
	cursors := make([]int, len(sol.classes))
	for i := range ids {
		slot := classIndex(sol.classes, specs[i], rates[i])
		if slot < 0 || cursors[slot] >= len(sol.rs[slot]) {
			return nil, false // defensive: key equality should preclude this
		}
		out.R[i] = sol.rs[slot][cursors[slot]]
		out.C[i] = sol.cs[slot][cursors[slot]]
		cursors[slot]++
	}
	return out, true
}

// cacheStore inserts a solved response under its key with FIFO
// eviction.  mu must be held.
//
//lint:locked mu
func (s *Server) cacheStore(key string, res *SolveResponse) {
	if _, dup := s.cache[key]; !dup {
		for len(s.cache) >= s.opt.CacheCap && len(s.cacheOrder) > 0 {
			delete(s.cache, s.cacheOrder[0])
			s.cacheOrder = s.cacheOrder[1:]
		}
		s.cacheOrder = append(s.cacheOrder, key)
	}
	s.cache[key] = res
}

// cacheClear drops every cached solve.  Called when a utility spec
// changes: the game itself changed, and although changed keys can never
// be re-hit, holding solutions of dead games would only displace live
// ones.  mu must be held.
//
//lint:locked mu
func (s *Server) cacheClear() {
	s.cache = make(map[string]*SolveResponse)
	s.cacheOrder = s.cacheOrder[:0]
	s.classCache = make(map[string]*classSolution)
	s.classOrder = s.classOrder[:0]
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
		s.cacheStore(j.key, res)
		s.classStore(j, res)
		for i, id := range j.ids {
			s.published[id] = pub{rate: res.R[i], congestion: res.C[i], profGen: j.profGen}
		}
		s.stats.SolvesRun++
	} else {
		s.stats.SolveFails++
		if rej.Reason == ReasonPanic {
			s.stats.Panics++
		}
	}
	delete(s.flights, j.key)
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
		Key:       j.key,
		Converged: nr.Converged,
		Iters:     nr.Iters,
		Clients:   j.ids,
		R:         nr.R,
		C:         nr.C,
	}, nil
}
