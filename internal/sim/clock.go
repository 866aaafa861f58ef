package sim

// Clock is an element's virtual clock. Components that execute strictly in
// sequence (the single-threaded control loop of a compute element) advance it
// directly; concurrent resources use Timelines and fold their completion
// times back into the clock with Sync. A Clock is not safe for concurrent
// use: it is owned by one element and read and advanced from that element's
// goroutine only.
type Clock struct {
	now Time
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d and returns the new time. Negative
// advances panic: virtual time never flows backwards.
func (c *Clock) Advance(d Time) Time {
	if d < 0 {
		panic("sim: negative clock advance")
	}
	c.now += d
	return c.now
}

// Sync moves the clock forward to tm if tm is later, returning the new time.
func (c *Clock) Sync(tm Time) Time {
	if tm > c.now {
		c.now = tm
	}
	return c.now
}
