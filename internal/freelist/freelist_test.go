package freelist

import "testing"

// TestListIsBoundedAndCounted: a list parks at most n values, a Get from an
// empty list is a fresh take, and Totals reads what the list holds times its
// item bytes.
func TestListIsBoundedAndCounted(t *testing.T) {
	const n, itemBytes = 3, 100
	made := 0
	l := New(n, itemBytes, func() *int { made++; return new(int) })
	bytes0, fresh0 := Totals()

	taken := make([]*int, n+2)
	for i := range taken {
		taken[i] = l.Get()
	}
	if _, fresh := Totals(); made != n+2 || fresh-fresh0 != n+2 {
		t.Fatalf("%d Gets from an empty list: %d made, %d counted fresh; want %d of each", n+2, made, fresh-fresh0, n+2)
	}
	for _, v := range taken {
		l.Put(v)
	}
	if held := len(l.free); held != n {
		t.Errorf("%d Puts parked %d values, want at most %d", n+2, held, n)
	}
	if bytes, _ := Totals(); bytes-bytes0 != n*itemBytes {
		t.Errorf("Totals counts %d bytes for the list, want %d values × %d bytes", bytes-bytes0, n, itemBytes)
	}

	for range n {
		if v := l.Get(); v != taken[0] && v != taken[1] && v != taken[2] {
			t.Error("a Get from a list holding values did not return one of them")
		}
	}
	bytes, fresh := Totals()
	if made != n+2 || fresh-fresh0 != n+2 || bytes != bytes0 {
		t.Errorf("after taking back every parked value: %d made, %d fresh, %d bytes held; want %d, %d and 0",
			made, fresh-fresh0, bytes-bytes0, n+2, n+2)
	}
}
