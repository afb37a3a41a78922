package des

// Stream-free markers.  Run and RunTandemCtx share one seeded rng per run
// with their disciplines, and their PairBatch may only prefetch whole
// blocks when nothing else consumes that stream mid-run — otherwise the
// prefetch would reorder draws and change every seeded result.  A
// discipline declares that it never draws from the run's rng (after
// Reset) by implementing StreamFree; anything without the marker —
// including randomized disciplines like ProcessorSharing (rng.Intn per
// departure), the FairShareSplitter thinner (rng.Float64 per arrival),
// and any external implementation — falls back to block size 1, which is
// byte-identical to the unbatched stream no matter who draws in between.
// Claiming the marker falsely is the one way to change seeded results, so
// new randomized disciplines must simply not implement it.  (RunG and
// RunSched batch their arrival pairs at full block size whoever draws in
// between; see arrivals in lazy.go.)

// StreamFree is implemented by disciplines that perform no draws from
// the run's shared rng between Reset and the end of the run.
type StreamFree interface {
	// StreamFree reports that the implementation is draw-free for the
	// whole run.
	StreamFree() bool
}

// streamFree reports whether v declares itself draw-free.
func streamFree(v interface{}) bool {
	sf, ok := v.(StreamFree)
	return ok && sf.StreamFree()
}

// StreamFree implements the draw-free marker: FIFO keeps a deterministic
// queue and never touches the rng.
func (f *FIFO) StreamFree() bool { return true }

// StreamFree implements the draw-free marker: the preemptive stack is
// deterministic.
func (l *LIFOPreemptive) StreamFree() bool { return true }

// StreamFree implements the draw-free marker: polling order is fixed.
func (c *CyclicPolling) StreamFree() bool { return true }

// StreamFree implements the draw-free marker: class queues are
// deterministic and classes arrive pre-assigned in Packet.Class.
func (s *StrictPriority) StreamFree() bool { return true }

// StreamFree implements the draw-free marker: the rank table is computed
// at Reset and the underlying strict-priority queues are deterministic.
func (r *RatePriority) StreamFree() bool { return true }
