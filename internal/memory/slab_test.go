package memory

import (
	"bytes"
	"sync"
	"testing"

	"deca/internal/obs"
)

// TestSlabLedger: a slab is charged while held, pooled once when released
// — however often Release is called — and comes back zeroed.
func TestSlabLedger(t *testing.T) {
	m := NewManager(1<<16, 0)
	s := m.NewSlab(192) // a 16-slot index table: not a 64 KiB page
	if st := m.Counters(); st[obs.PageBytesInUse] != 192 || s.Footprint() != 192 || st[obs.PagesAllocated] != 1 {
		t.Fatalf("a 192-byte slab is charged %d bytes (footprint %d) in %d allocations, want 192 in 1", st[obs.PageBytesInUse], s.Footprint(), st[obs.PagesAllocated])
	}
	for i := range s.Bytes() {
		s.Bytes()[i] = 0xff
	}
	s.Release()
	s.Release()
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageBytesPooled] != 192 || st[obs.PagesReleased] != 1 {
		t.Fatalf("after a double Release: %+v, want 0 in use, 192 pooled, 1 released", st)
	}
	if s.Bytes() != nil || s.Footprint() != 0 {
		t.Error("a released slab still shows its memory")
	}
	again := m.NewSlab(192)
	defer again.Release()
	if st := m.Counters(); st[obs.PagesAllocated] != 1 || st[obs.PagesReused] != 1 || st[obs.PageBytesPooled] != 0 {
		t.Errorf("the second slab of a size was not the first one's memory: %+v", st)
	}
	if !bytes.Equal(again.Bytes(), make([]byte, 192)) {
		t.Error("a recycled slab is not zeroed")
	}
}

// TestSlabSizeClasses: a request is served from its own power-of-two
// class only — never a block less than it asks for, never the much larger
// one a sibling will want — and, within the class, by the best fit, not
// the first.
func TestSlabSizeClasses(t *testing.T) {
	m := NewManager(4096, 0)
	hold := func(n int) *Slab { s := m.NewSlab(n); return &s }
	big, mid, small := hold(1000), hold(600), hold(520) // one class: [512, 1024)
	other := hold(1536)                                 // the next one
	for _, s := range []*Slab{big, small, mid, other} {
		s.Release()
	}
	base := m.Counters()

	for _, c := range []struct{ want, footprint int }{
		{530, 600},   // 520 is too small, 1000 fits worse
		{512, 520},   // the best of what is left
		{400, 400},   // class [256, 512) is empty: the 1000 and 1536 are not for it
		{1100, 1536}, // class [1024, 2048)
		{900, 1000},  // the last one pooled
	} {
		s := m.NewSlab(c.want)
		if got := s.Footprint(); got != int64(c.footprint) {
			t.Errorf("a %d-byte request got a %d-byte block, want %d", c.want, got, c.footprint)
		}
		defer s.Release()
	}
	if st := m.Counters(); st[obs.PagesReused]-base[obs.PagesReused] != 4 || st[obs.PagesAllocated]-base[obs.PagesAllocated] != 1 || st[obs.PageBytesPooled] != 0 {
		t.Errorf("5 requests: %d reused, %d fresh, %d bytes still pooled; want 4, 1 and 0",
			st[obs.PagesReused]-base[obs.PagesReused], st[obs.PagesAllocated]-base[obs.PagesAllocated], st[obs.PageBytesPooled])
	}
}

// TestOversizedPagesBestFit: an oversized page request takes the smallest
// pooled block that holds it, not the first, and a class keeps at most
// bigMax oversized pages.
func TestOversizedPagesBestFit(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	for _, n := range []int{500, 300, 450} { // one class: [256, 512)
		g.Alloc(n)
	}
	g.Release()
	g = m.NewGroup()
	if seg, _ := g.Alloc(400); cap(seg) != 450 {
		t.Errorf("a 400-byte object got a %d-byte page, want the 450-byte one", cap(seg))
	}
	if seg, _ := g.Alloc(280); cap(seg) != 300 {
		t.Errorf("a 280-byte object got a %d-byte page, want the 300-byte one", cap(seg))
	}
	if st := m.Counters(); st[obs.PagesReused] != 2 || st[obs.PageBytesPooled] != 500 {
		t.Errorf("two oversized requests: %+v, want both reused and the 500-byte page still pooled", st)
	}
	for i := 0; i < bigMax+4; i++ {
		g.Alloc(300)
	}
	g.Release()
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageBytesPooled] != 500+450+(bigMax-2)*300 {
		t.Errorf("%d oversized pages of one class released: %+v, want %d of them pooled", bigMax+6, st, bigMax)
	}
}

// TestBlockPoolCaps: every released slab is pooled inside poolMax, whatever
// its size against a page (until ISSUE 23 one over half a page was not: the
// index tables that large are now segments, asked for again by the next
// split), and pages and blocks share that one byte bound, whichever come
// first; the ledger returns to zero either way.
func TestBlockPoolCaps(t *testing.T) {
	m := NewManager(1024, 4096) // pool cap: 4 pages' worth
	slabs := make([]Slab, 5)
	for i := range slabs {
		slabs[i] = m.NewSlab(500)
	}
	g := m.NewGroup()
	for i := 0; i < 4; i++ {
		g.Alloc(1024)
	}
	large := m.NewSlab(513)
	large.Release()
	if st := m.Counters(); st[obs.PageBytesPooled] != 513 || st[obs.PagesReleased] != 1 {
		t.Errorf("a slab over half a page was not pooled: %+v", st)
	}
	for i := range slabs {
		slabs[i].Release()
	}
	if st := m.Counters(); st[obs.PageBytesPooled] != 513+2500 || st[obs.PagesReleased] != 6 {
		t.Errorf("513 + 5 × 500 bytes released under a 4096-byte cap: %+v, want 3013 pooled", st)
	}
	g.Release() // blocks first, then pages: the same 4096 bytes bound both
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageBytesPooled] != 3013+1024 || st[obs.PagesReleased] != 10 {
		t.Errorf("4 pages released beside 3013 pooled bytes: %+v, want one of them pooled", st)
	}

	m = NewManager(1024, 4096)
	g = m.NewGroup()
	for i := 0; i < 4; i++ {
		g.Alloc(1024)
	}
	s := m.NewSlab(500)
	g.Release() // pages first: the pool is full,
	s.Release() // and a block finds no room in it
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageBytesPooled] != 4096 {
		t.Errorf("a block released into a pool full of pages: %+v, want 4096 pooled", st)
	}
}

// TestSlabsConcurrent: index tables are taken and returned by every task
// of an executor at once (run under -race).
func TestSlabsConcurrent(t *testing.T) {
	m := NewManager(4096, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := m.NewSlab(192 << (uint(i+w) % 6))
				b := s.Bytes()
				if b[0] != 0 || b[len(b)-1] != 0 {
					t.Error("slab not zeroed")
				}
				b[0], b[len(b)-1] = 1, 1
				g := m.NewGroup()
				g.Alloc(100)
				s.Release()
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageGroupsLive] != 0 || st[obs.PagesAllocated]+st[obs.PagesReused] != st[obs.PagesReleased] {
		t.Errorf("ledger after the storm: %+v", st)
	}
}

// TestRestoreRightSizesShortPages: a frame's short last page restores into
// a block of its own size — whether or not the pool has a page to spare —
// and goes back to the pool as one.
func TestRestoreRightSizesShortPages(t *testing.T) {
	src := NewManager(1024, 0)
	g := src.NewGroup()
	g.Alloc(1000) // a full page's worth,
	g.Alloc(100)  // and a short second page
	var frame bytes.Buffer
	if _, err := g.Snapshot(&frame); err != nil {
		t.Fatal(err)
	}
	g.Release()

	dst := NewManager(1024, 0)
	warm := dst.NewGroup()
	warm.Alloc(1000)
	warm.Alloc(1000)
	warm.Release() // two pooled pages: the restore takes one
	r, err := dst.RestoreGroup(&frame)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Footprint(); got != 1024+100 {
		t.Errorf("restored footprint %d, want a 1024-byte page and a 100-byte block", got)
	}
	if st := dst.Counters(); st[obs.PageBytesInUse] != r.Footprint() || st[obs.PageBytesPooled] != 1024 {
		t.Errorf("manager charges %d for a footprint of %d with %d bytes pooled, want one page left in the pool", st[obs.PageBytesInUse], r.Footprint(), st[obs.PageBytesPooled])
	}
	r.Release()
	if st := dst.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageBytesPooled] != 2048+100 {
		t.Errorf("after release: %+v, want both pages and the block pooled", st)
	}
}
