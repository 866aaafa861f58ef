package mpi

import "fmt"

// Group collectives operate over a subset of ranks — the process-row and
// process-column communicators of a 2D grid. Every member must call the
// collective with the identical member list (order included) and tag.

// GroupBcast distributes data from members[rootIdx] over a binomial tree
// within the group. Non-roots pass nil and receive the payload, which they
// own as Recv's and may Release when finished; the root gets its own data
// back and keeps it.
func (c *Comm) GroupBcast(members []int, rootIdx, tag int, data []float64) []float64 {
	n := len(members)
	if n <= 1 {
		return data
	}
	// Rotate the group so the root is virtual rank 0, then run the standard
	// binomial tree on virtual ranks.
	me := c.indexOf(members, c.rank)
	vrank := (me - rootIdx + n) % n
	toReal := func(v int) int { return members[(v+rootIdx)%n] }
	if vrank != 0 {
		parent := vrank &^ lowestBit(vrank)
		data = c.Recv(toReal(parent), tag)
	}
	// Forward to children: vrank + 2^k for 2^k > lowestBit(vrank) while in
	// range. Root (vrank 0) sends to 1, 2, 4, ...
	limit := lowestBit(vrank)
	if vrank == 0 {
		limit = n
	}
	for bit := 1; bit < limit && vrank+bit < n; bit <<= 1 {
		c.Send(toReal(vrank+bit), tag, data)
	}
	return data
}

// GroupMaxLoc finds the maximum of val across the group, returning the
// winning value and the member index holding it (lowest index on ties, the
// partial-pivoting convention). Implemented as a gather to members[0]
// followed by a group broadcast.
func (c *Comm) GroupMaxLoc(members []int, tag int, val float64) (best float64, winnerIdx int) {
	n := len(members)
	if n == 1 {
		return val, 0
	}
	me := c.indexOf(members, c.rank)
	if me == 0 {
		best, winnerIdx = val, 0
		seen := 1
		for seen < n {
			data, src := c.RecvFrom(Any, tag)
			idx := c.indexOf(members, src)
			//lint:ignore floateq exact-value ties must break on the lowest index (partial-pivoting convention)
			if data[0] > best || (data[0] == best && idx < winnerIdx) {
				best, winnerIdx = data[0], idx
			}
			c.Release(data)
			seen++
		}
		c.GroupBcast(members, 0, tag+1, []float64{best, float64(winnerIdx)})
		return best, winnerIdx
	}
	c.Send(members[0], tag, []float64{val})
	out := c.GroupBcast(members, 0, tag+1, nil)
	best, winnerIdx = out[0], int(out[1])
	c.Release(out)
	return best, winnerIdx
}

// indexOf returns rank's position in members.
func (c *Comm) indexOf(members []int, rank int) int {
	for i, r := range members {
		if r == rank {
			return i
		}
	}
	panic(fmt.Sprintf("mpi: rank %d not in group %v", rank, members))
}

// SendRecv exchanges payloads with a peer: both sides call it with each
// other's rank and the same tag pair, avoiding the deadlock a naive
// recv-then-send ordering would invite on a synchronous fabric.
func (c *Comm) SendRecv(peer, sendTag, recvTag int, data []float64) []float64 {
	c.Send(peer, sendTag, data)
	return c.Recv(peer, recvTag)
}
