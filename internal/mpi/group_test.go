package mpi

import "testing"

func TestGroupBcastSubset(t *testing.T) {
	w := NewWorld(Config{Size: 6})
	members := []int{1, 3, 5}
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 1, 3, 5:
			var got []float64
			if c.Rank() == 3 {
				got = c.GroupBcast(members, 1, 9, []float64{7})
			} else {
				got = c.GroupBcast(members, 1, 9, nil)
			}
			if len(got) != 1 || got[0] != 7 {
				t.Errorf("rank %d got %v", c.Rank(), got)
			}
		default:
			// Non-members do nothing and must not be disturbed.
		}
	})
}

func TestGroupBcastSingleton(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			got := c.GroupBcast([]int{0}, 0, 1, []float64{5})
			if got[0] != 5 {
				t.Errorf("singleton bcast %v", got)
			}
		}
	})
}

func TestGroupBcastVariousSizes(t *testing.T) {
	for _, size := range []int{2, 3, 4, 5, 7, 8} {
		w := NewWorld(Config{Size: size})
		members := make([]int, size)
		for i := range members {
			members[i] = i
		}
		for root := 0; root < size; root++ {
			root := root
			w = NewWorld(Config{Size: size})
			w.Run(func(c *Comm) {
				var got []float64
				if c.Rank() == members[root] {
					got = c.GroupBcast(members, root, 2, []float64{float64(root)})
				} else {
					got = c.GroupBcast(members, root, 2, nil)
				}
				if got[0] != float64(root) {
					t.Errorf("size %d root %d rank %d: got %v", size, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestGroupMaxLoc(t *testing.T) {
	w := NewWorld(Config{Size: 4})
	members := []int{0, 1, 2, 3}
	w.Run(func(c *Comm) {
		vals := []float64{3, 9, 1, 9} // tie between idx 1 and 3
		best, idx := c.GroupMaxLoc(members, 11, vals[c.Rank()])
		if best != 9 || idx != 1 {
			t.Errorf("rank %d: maxloc = (%v, %d), want (9, 1)", c.Rank(), best, idx)
		}
	})
}

func TestGroupMaxLocSingleton(t *testing.T) {
	w := NewWorld(Config{Size: 1})
	w.Run(func(c *Comm) {
		best, idx := c.GroupMaxLoc([]int{0}, 1, 4.5)
		if best != 4.5 || idx != 0 {
			t.Errorf("singleton maxloc (%v, %d)", best, idx)
		}
	})
}

func TestSendRecvExchange(t *testing.T) {
	w := NewWorld(Config{Size: 2})
	w.Run(func(c *Comm) {
		mine := []float64{float64(c.Rank())}
		got := c.SendRecv(1-c.Rank(), 40, 40, mine)
		if got[0] != float64(1-c.Rank()) {
			t.Errorf("rank %d exchange got %v", c.Rank(), got)
		}
	})
}

func TestGroupIndexPanicsForOutsider(t *testing.T) {
	w := NewWorld(Config{Size: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("outsider in group op should panic")
		}
	}()
	w.comms[0].GroupBcast([]int{1, 2}, 0, 1, nil)
}
