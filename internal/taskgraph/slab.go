package taskgraph

// slabMinChunk and slabMaxChunk bound a slab's chunk sizes, in elements:
// small graphs (the elastic rebuild, lu-real's 1,496 tasks) never pay for a
// chunk sized for the 19,019-task whole factorization, and a large graph
// over-reserves by at most one slabMaxChunk chunk.
const (
	slabMinChunk = 64
	slabMaxChunk = 4096
)

// slab is append-only storage whose elements never move: it grows by adding
// chunks (doubling from slabMinChunk to slabMaxChunk), so a pointer or a
// sub-slice handed out stays valid until reset, and reset keeps every chunk
// for the next fill. A Graph stores its tasks, handles, access lists and
// dependency lists in slabs.
type slab[T any] struct {
	chunks [][]T // chunks[:cur] are closed, chunks[cur] is being filled, the rest are empty
	cur    int
}

// reserve returns the chunk being filled once it has room for n more
// elements, closing chunks that have not and adding one when none is left.
func (s *slab[T]) reserve(n int) *[]T {
	for ; s.cur < len(s.chunks); s.cur++ {
		if c := &s.chunks[s.cur]; cap(*c)-len(*c) >= n {
			return c
		}
	}
	size := slabMinChunk
	if k := len(s.chunks); k > 0 {
		size = min(2*cap(s.chunks[k-1]), slabMaxChunk)
	}
	s.chunks = append(s.chunks, make([]T, 0, max(size, n)))
	return &s.chunks[s.cur]
}

// alloc returns the next element. It holds whatever the slot held before the
// last reset; the caller overwrites it.
func (s *slab[T]) alloc() *T {
	c := s.reserve(1)
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

// push returns run extended by vs as one contiguous slab-owned slice, with no
// spare capacity for a caller's append to scribble on. A run that already
// ends the chunk being filled grows in place; any other run — empty, the
// caller's own, or one buried under later pushes — is copied to the tail.
func (s *slab[T]) push(run []T, vs ...T) []T {
	if len(run)+len(vs) == 0 {
		return nil
	}
	if len(run) > 0 && s.cur < len(s.chunks) {
		c := &s.chunks[s.cur]
		if at := len(*c) - len(run); at >= 0 && &(*c)[at] == &run[0] && len(*c)+len(vs) <= cap(*c) {
			*c = append(*c, vs...)
			return (*c)[at:len(*c):len(*c)]
		}
	}
	c := s.reserve(len(run) + len(vs))
	at := len(*c)
	*c = append(append(*c, run...), vs...)
	return (*c)[at:len(*c):len(*c)]
}

// reset empties the slab and keeps its chunks.
func (s *slab[T]) reset() {
	for i := range s.chunks {
		s.chunks[i] = s.chunks[i][:0]
	}
	s.cur = 0
}
