package matrix

// FreeList recycles float64 backing storage inside one owner — a simulated
// device's buffers, one message world's payloads. Put hands a slice back and
// Get returns the best fit by capacity, allocating only when nothing fits.
// Recycled storage holds whatever its last user left in it: a caller reads
// none of it before writing it. The zero value is an empty list; it is not
// safe for concurrent use.
type FreeList struct {
	bufs [][]float64
}

// Get returns a slice of length n: the free slice with the smallest capacity
// that holds n, or a fresh one when none does. Get(0) is nil.
func (f *FreeList) Get(n int) []float64 {
	if n <= 0 {
		return nil
	}
	best := -1
	for i, b := range f.bufs {
		if cap(b) >= n && (best < 0 || cap(b) < cap(f.bufs[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, n)
	}
	b := f.bufs[best]
	last := len(f.bufs) - 1
	f.bufs[best], f.bufs[last] = f.bufs[last], nil
	f.bufs = f.bufs[:last]
	return b[:n]
}

// Put hands s back for a later Get; the caller must not touch it again.
// Putting a slice whose storage is already on the list panics: two later
// owners would share it.
func (f *FreeList) Put(s []float64) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	for _, b := range f.bufs {
		if &b[0] == &s[0] {
			panic("matrix: storage put on a free list twice")
		}
	}
	f.bufs = append(f.bufs, s)
}
