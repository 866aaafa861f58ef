package blas

import (
	"sync"
	"sync/atomic"
)

// ForSlabs cuts [0, n) into width-wide slabs and calls fn(j0, j1) once per
// slab. With workers > 1 and more than one slab, min(workers, slabs)
// goroutines, the caller's among them, take the slabs in index order from
// one atomic counter, so fn must write only what its slab owns; otherwise
// the slabs run in order on the caller's goroutine. It returns once every
// slab is done. It is the one worker loop of the real-arithmetic paths:
// DgemmParallel's column slabs, and hpl's swap, solve, fill and residual
// slabs.
func ForSlabs(n, width, workers int, fn func(j0, j1 int)) {
	if width <= 0 {
		panic("blas: ForSlabs slab width must be positive")
	}
	workers = min(workers, (n+width-1)/width)
	if workers <= 1 {
		for j := 0; j < n; j += width {
			fn(j, min(j+width, n))
		}
		return
	}
	var next atomic.Int64
	take := func() {
		for {
			j := (int(next.Add(1)) - 1) * width
			if j >= n {
				return
			}
			fn(j, min(j+width, n))
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			take()
		}()
	}
	take()
	wg.Wait()
}
