// Package lib is the dead-code fixture: each declaration is reached (or
// not) a different way, by cmd/app, by this package's test, or by
// internal/other's test.
package lib

import "sync"

// Used is named by cmd/app.
func Used() int { return helper() }

func helper() int { return 1 }

func Dead() {} // want "exported func Dead is referenced by no non-test file"

// OwnTestOnly is called by this package's test alone: it could live there.
func OwnTestOnly() {} // want "exported func OwnTestOnly is referenced by no non-test file"

// Shared is called by another package's test, which cannot reach into a
// _test.go file here: shared test support stays.
func Shared() {}

type Kind int

// Enumeration members stand or fall with their type, named or not.
const (
	KindA Kind = iota
	KindB
)

const Loose = 3 // want "exported const Loose is referenced by no non-test file"

var Global int // want "exported var Global is referenced by no non-test file"

type Unused struct{} // want "exported type Unused is referenced by no non-test file"

type T struct {
	mu sync.Mutex
	n  int
}

func NewT() *T { return &T{} }

// String is reached through fmt.Stringer.
func (t *T) String() string { return "t" }

// N is an accessor the test reads: its window on unexported state.
func (t *T) N() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t == nil {
		return 0
	}
	return t.n
}

// Unread is an accessor nothing reads.
func (t *T) Unread() int { return t.n } // want "exported method Unread is referenced by no non-test file and satisfies no interface"

// Set is called by the test, but it is no accessor.
func (t *T) Set(n int) { t.n = n } // want "exported method Set is referenced by no non-test file and satisfies no interface"

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }

// Unwrap is found by errors.Is through an unnamed interface.
func (w wrapped) Unwrap() error { return w.err }

func Wrap(err error) error { return wrapped{err} }

type Config struct {
	Size  int // set by cmd/app
	Depth int // want "option Config.Depth is set by no file; make it a constant"
	Hook  int // set by the test only: its way into a path nothing else takes
	Tuned int // set below through a field of another struct: a real setter
}

func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = 4
	}
	return c
}

type runner struct{ cfg Config }

func Run(c Config) int {
	r := runner{cfg: c.withDefaults()}
	r.cfg.Tuned = 2
	return r.cfg.Size + r.cfg.Depth + r.cfg.Hook + r.cfg.Tuned
}
