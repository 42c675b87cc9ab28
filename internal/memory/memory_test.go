package memory

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAllocAppendRead(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()

	p1 := g.Append([]byte("hello"))
	p2 := g.Append([]byte("world!"))
	if got := string(g.Bytes(p1, 5)); got != "hello" {
		t.Errorf("read back %q, want hello", got)
	}
	if got := string(g.Bytes(p2, 6)); got != "world!" {
		t.Errorf("read back %q, want world!", got)
	}
	if g.Len() != 11 {
		t.Errorf("Len = %d, want 11", g.Len())
	}
	if g.EndOffset() != 11 {
		t.Errorf("EndOffset = %d, want 11", g.EndOffset())
	}
}

func TestSegmentsNeverSpanPages(t *testing.T) {
	m := NewManager(16, 0)
	g := m.NewGroup()
	defer g.Release()

	g.Append(make([]byte, 10)) // page 0: 10/16
	ptr := g.Append(make([]byte, 10))
	if ptr.Page != 1 || ptr.Off != 0 {
		t.Errorf("second segment at %v, want page 1 off 0", ptr)
	}
	if g.NumPages() != 2 {
		t.Errorf("NumPages = %d, want 2", g.NumPages())
	}
}

func TestOversizedAllocation(t *testing.T) {
	m := NewManager(16, 0)
	g := m.NewGroup()
	defer g.Release()

	big := make([]byte, 100)
	for i := range big {
		big[i] = byte(i)
	}
	ptr := g.Append(big)
	if !bytes.Equal(g.Bytes(ptr, 100), big) {
		t.Error("oversized segment corrupted")
	}
}

func TestPagePooling(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	g.Append(make([]byte, 20))
	g.Append(make([]byte, 20))
	g.Release()

	st := m.Stats()
	if st.PagesAllocated != 2 {
		t.Fatalf("PagesAllocated = %d, want 2", st.PagesAllocated)
	}
	if st.BytesInUse != 0 {
		t.Errorf("BytesInUse after release = %d, want 0", st.BytesInUse)
	}

	g2 := m.NewGroup()
	g2.Append(make([]byte, 20))
	g2.Append(make([]byte, 20))
	defer g2.Release()
	st = m.Stats()
	if st.PagesReused != 2 {
		t.Errorf("PagesReused = %d, want 2 (got stats %+v)", st.PagesReused, st)
	}
	if st.PagesAllocated != 2 {
		t.Errorf("PagesAllocated = %d, want still 2", st.PagesAllocated)
	}
}

func TestRefcounting(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	g.Append([]byte("abc"))

	g.Retain()
	g.Release()
	// Still alive after one release of two references.
	if got := string(g.Bytes(Ptr{}, 3)); got != "abc" {
		t.Errorf("read %q, want abc", got)
	}
	g.Release()
	if g.Refs() != 0 {
		t.Errorf("Refs = %d, want 0", g.Refs())
	}

	defer func() {
		if recover() == nil {
			t.Error("use after final release should panic")
		}
	}()
	g.Bytes(Ptr{}, 3)
}

func TestOverRelease(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	g.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release should panic")
		}
	}()
	g.Release()
}

func TestRetainAfterRelease(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	g.Release()
	defer func() {
		if recover() == nil {
			t.Error("Retain after release should panic")
		}
	}()
	g.Retain()
}

func TestDepGroups(t *testing.T) {
	// Fig 7(a): a secondary container's page-info holds depPages to the
	// primary's group; releasing the secondary drops its retain.
	m := NewManager(32, 0)
	primary := m.NewGroup()
	primary.Append([]byte("data"))

	secondary := m.NewGroup()
	secondary.AddDep(primary)
	if primary.Refs() != 2 {
		t.Fatalf("primary refs = %d, want 2", primary.Refs())
	}
	if len(secondary.Deps()) != 1 {
		t.Fatalf("deps = %d, want 1", len(secondary.Deps()))
	}

	primary.Release() // owner drops it; data must survive via the secondary
	if got := string(primary.Bytes(Ptr{}, 4)); got != "data" {
		t.Errorf("read %q, want data", got)
	}
	secondary.Release()
	if primary.Refs() != 0 {
		t.Errorf("primary refs after secondary release = %d, want 0", primary.Refs())
	}
}

func TestCheckedBytes(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	defer g.Release()
	g.Append([]byte("abcdef"))

	if _, err := g.CheckedBytes(Ptr{Page: 0, Off: 0}, 6); err != nil {
		t.Errorf("valid read failed: %v", err)
	}
	if _, err := g.CheckedBytes(Ptr{Page: 1, Off: 0}, 1); err == nil {
		t.Error("out-of-range page should error")
	}
	if _, err := g.CheckedBytes(Ptr{Page: 0, Off: 4}, 10); err == nil {
		t.Error("out-of-range segment should error")
	}
	if _, err := g.CheckedBytes(Ptr{Page: 0, Off: -1}, 1); err == nil {
		t.Error("negative offset should error")
	}
}

func TestCursorScan(t *testing.T) {
	m := NewManager(16, 0)
	g := m.NewGroup()
	defer g.Release()

	sizes := []int{5, 10, 3, 16, 1}
	var want [][]byte
	for i, n := range sizes {
		b := bytes.Repeat([]byte{byte('a' + i)}, n)
		g.Append(b)
		want = append(want, b)
	}
	c := g.Scan()
	for i, n := range sizes {
		if c.Done() {
			t.Fatalf("cursor done early at segment %d", i)
		}
		got := c.Next(n)
		if !bytes.Equal(got, want[i]) {
			t.Errorf("segment %d: got %q want %q", i, got, want[i])
		}
	}
	if !c.Done() {
		t.Error("cursor should be done")
	}
}

func TestCursorSeek(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()
	g.Append([]byte("0123456789"))
	c := g.Scan()
	c.Next(4)
	mark := c.Ptr()
	c.Next(4)
	c.Seek(mark)
	if got := string(c.Next(3)); got != "456" {
		t.Errorf("after seek read %q, want 456", got)
	}
}

func TestCursorOverrun(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()
	g.Append([]byte("abc"))
	c := g.Scan()
	c.Next(3)
	defer func() {
		if recover() == nil {
			t.Error("reading past end should panic")
		}
	}()
	c.Next(1)
}

func TestReset(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	defer g.Release()
	g.Append(make([]byte, 20))
	g.Append(make([]byte, 20))
	g.Reset()
	if g.Len() != 0 || g.NumPages() != 0 {
		t.Errorf("after reset: Len=%d NumPages=%d", g.Len(), g.NumPages())
	}
	if m.InUse() != 0 {
		t.Errorf("InUse after reset = %d, want 0", m.InUse())
	}
	// Group remains usable.
	p := g.Append([]byte("x"))
	if string(g.Bytes(p, 1)) != "x" {
		t.Error("group unusable after reset")
	}
}

func TestBudgetAccounting(t *testing.T) {
	m := NewManager(32, 64)
	g := m.NewGroup()
	defer g.Release()
	if m.OverBudget() {
		t.Error("empty manager over budget")
	}
	g.Append(make([]byte, 30))
	g.Append(make([]byte, 30))
	g.Append(make([]byte, 30)) // 3 pages = 96 bytes > 64
	if !m.OverBudget() {
		t.Error("manager should be over budget")
	}
	if m.Limit() != 64 {
		t.Errorf("Limit = %d", m.Limit())
	}
}

func TestConcurrentGroups(t *testing.T) {
	m := NewManager(1024, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				g := m.NewGroup()
				var ptrs []Ptr
				var lens []int
				for j := 0; j < 20; j++ {
					n := 1 + r.Intn(64)
					b := make([]byte, n)
					b[0] = byte(j)
					ptrs = append(ptrs, g.Append(b))
					lens = append(lens, n)
				}
				for j, p := range ptrs {
					if g.Bytes(p, lens[j])[0] != byte(j) {
						panic("corrupted segment")
					}
				}
				g.Release()
			}
		}(int64(w))
	}
	wg.Wait()
	if got := m.InUse(); got != 0 {
		t.Errorf("InUse after all releases = %d, want 0", got)
	}
	if got := m.Stats().LiveGroups; got != 0 {
		t.Errorf("LiveGroups = %d, want 0", got)
	}
}

// Property: any sequence of appends reads back intact through both random
// access and a sequential cursor, with Len equal to the sum of segment
// sizes.
func TestGroupRoundTripProperty(t *testing.T) {
	m := NewManager(64, 0)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := m.NewGroup()
		defer g.Release()
		n := r.Intn(40)
		segs := make([][]byte, n)
		ptrs := make([]Ptr, n)
		var total int64
		for i := range segs {
			b := make([]byte, r.Intn(100))
			r.Read(b)
			segs[i] = b
			ptrs[i] = g.Append(b)
			total += int64(len(b))
		}
		if g.Len() != total {
			return false
		}
		for i := range segs {
			if !bytes.Equal(g.Bytes(ptrs[i], len(segs[i])), segs[i]) {
				return false
			}
		}
		c := g.Scan()
		for i := range segs {
			if len(segs[i]) == 0 {
				continue
			}
			if !bytes.Equal(c.Next(len(segs[i])), segs[i]) {
				return false
			}
		}
		return c.Done()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDefaultPageSize(t *testing.T) {
	m := NewManager(0, 0)
	if m.PageSize() != DefaultPageSize {
		t.Errorf("PageSize = %d, want %d", m.PageSize(), DefaultPageSize)
	}
}

func TestNegativeAllocPanics(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	defer g.Release()
	defer func() {
		if recover() == nil {
			t.Error("negative alloc should panic")
		}
	}()
	g.Alloc(-1)
}

func TestFootprint(t *testing.T) {
	m := NewManager(32, 0)
	g := m.NewGroup()
	defer g.Release()
	g.Append(make([]byte, 10))
	if g.Footprint() != 32 {
		t.Errorf("Footprint = %d, want 32", g.Footprint())
	}
	if g.Len() != 10 {
		t.Errorf("Len = %d, want 10", g.Len())
	}
}
