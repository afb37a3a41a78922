// Package guardedby exercises the lock-discipline analyzer: //lint:guardedby
// field annotations checked against the CFG lock-held lattice, and
// //lint:locked call-site preconditions.
package guardedby

import "sync"

// counter is the canonical guarded struct: n may only be touched under mu.
type counter struct {
	mu sync.RWMutex
	//lint:guardedby mu
	n int
}

// bad writes without any lock.
func (c *counter) bad() {
	c.n++ // want "access to c.n"
}

// badRead reads without any lock.
func (c *counter) badRead() int {
	return c.n // want "access to c.n"
}

// good holds the exclusive lock; the deferred unlock runs at return, so
// the lock stays held for the whole body.
func (c *counter) good() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// rlockRead holds only the read lock, which the lattice does not track:
// the read is reported, never passed silently.
func (c *counter) rlockRead() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n // want "access to c.n"
}

// tryGate holds the lock past a negated TryLock, which the lattice does
// not track either: the write is reported.
func (c *counter) tryGate() {
	if !c.mu.TryLock() {
		return
	}
	c.n++ // want "access to c.n"
	c.mu.Unlock()
}

// releasedEarly loses the lock at the explicit unlock.
func (c *counter) releasedEarly() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.n++ // want "access to c.n"
}

// relockLoop releases and re-acquires per iteration; both accesses are
// covered, and the loop back-edge does not leak the held state past the
// unlock.
func (c *counter) relockLoop(rounds int) {
	for i := 0; i < rounds; i++ {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

// bumpLocked declares its precondition instead of acquiring: callers must
// hold c.mu exclusively.
//
//lint:locked mu
func (c *counter) bumpLocked() {
	c.n++
}

// goodCaller satisfies the //lint:locked precondition.
func (c *counter) goodCaller() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
}

// badCaller calls the locked method without holding anything.
func (c *counter) badCaller() {
	c.bumpLocked() // want "requires c.mu held exclusively"
}

// bumpLookalike carries a longer token, which is another directive: its
// body holds no lock, and its callers owe it none.
//
//lint:lockedmu
func (c *counter) bumpLookalike() {
	c.n++ // want "access to c.n"
}

// lookalikeCaller holds nothing, and the lookalike asks for nothing.
func (c *counter) lookalikeCaller() {
	c.bumpLookalike()
}

// spawned closures are separate units: the lock held at spawn time is no
// guarantee at run time.
func (c *counter) leakyClosure(done chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want "access to c.n"
		close(done)
	}()
}

// selfLockingClosure acquires inside the literal, which is fine.
func (c *counter) selfLockingClosure(done chan struct{}) {
	go func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
		close(done)
	}()
}

// misannotated names a lock that is not a sibling field.
type misannotated struct {
	//lint:guardedby nosuch // want "names no sibling field"
	v int
}

// allowEscape documents an audited exception.
func (c *counter) allowEscape() int {
	return c.n //lint:allow guardedby read is racy by design; monotonic counter used for logging only
}
