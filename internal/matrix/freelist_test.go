package matrix

import "testing"

func TestFreeListBestFit(t *testing.T) {
	var f FreeList
	if f.Get(0) != nil {
		t.Fatal("Get(0) must not hand out storage")
	}
	small, large := make([]float64, 4), make([]float64, 16)
	f.Put(large[:3]) // the whole capacity goes back, whatever the length
	f.Put(small)
	f.Put(nil)
	if got := f.Get(3); len(got) != 3 || &got[0] != &small[0] {
		t.Fatal("Get(3) did not take the smallest slice that fits")
	}
	if got := f.Get(10); len(got) != 10 || &got[0] != &large[0] {
		t.Fatal("Get(10) did not take the 16-value slice")
	}
	if got := f.Get(1); &got[0] == &small[0] || &got[0] == &large[0] {
		t.Fatal("an empty list must allocate")
	}
}

func TestFreeListDoublePutPanics(t *testing.T) {
	var f FreeList
	s := make([]float64, 8)
	f.Put(s)
	defer func() {
		if recover() == nil {
			t.Fatal("putting the same storage twice should panic")
		}
	}()
	f.Put(s[:2])
}
