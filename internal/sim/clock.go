package sim

import "sync"

// Clock is a shared virtual clock. Components that execute strictly in
// sequence (the single-threaded control loop of a compute element) advance it
// directly; concurrent resources use Timelines and fold their completion
// times back into the clock with Sync.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d and returns the new time. Negative
// advances panic: virtual time never flows backwards.
func (c *Clock) Advance(d Time) Time {
	if d < 0 {
		panic("sim: negative clock advance")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Sync moves the clock forward to tm if tm is later, returning the new time.
func (c *Clock) Sync(tm Time) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tm > c.now {
		c.now = tm
	}
	return c.now
}
