// Package conc seeds one violation per concurrency-contract analyzer
// (guardedby, fanout) so the golden output pins the v4 pair.
package conc

import "sync"

// Counter guards its count with a mutex.
type Counter struct {
	mu sync.Mutex
	//lint:guardedby mu
	n int
}

// Bump writes the guarded field with no lock: a guardedby finding.
func (c *Counter) Bump() {
	c.n++
}

// Snapshot is the disciplined shape: no finding.
func (c *Counter) Snapshot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Feed streams counts to watchers.
type Feed struct {
	out chan int
}

// Watch spawns an unannotated goroutine: a fanout finding.
func (f *Feed) Watch(c *Counter) {
	go func() {
		for range f.out {
			c.Snapshot()
		}
	}()
}
