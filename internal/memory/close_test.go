package memory

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"deca/internal/gcstats"
)

// TestCloseAfterReleases: a manager whose groups and slabs were all
// released holds its memory only in the pool, and Close unmaps all of it.
func TestCloseAfterReleases(t *testing.T) {
	m := NewManager(4096, 0)
	g := m.NewGroup()
	for _, n := range []int{100, 4000, 9000, 30} { // two standard pages, an oversized one, a third page
		g.Alloc(n)
	}
	s := m.NewSlab(192)
	g.Release()
	s.Release()
	if st := m.Stats(); st.BytesInUse != 0 || st.BytesPooled != 3*4096+9000+192 {
		t.Fatalf("before Close: %+v, want everything pooled", st)
	}
	m.Close()
	if st := m.Stats(); st.BytesInUse != 0 || st.BytesPooled != 0 || st.LiveGroups != 0 {
		t.Errorf("after Close: %+v, want nothing in use or pooled", st)
	}
}

// TestCloseIsIdempotentAndFinal: a second Close does nothing, and a closed
// manager hands out no page, block or slab.
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	m := NewManager(64, 0)
	m.Close()
	m.Close()
	for name, ask := range map[string]func(){
		"getPage":   func() { m.getPage(1) },
		"oversized": func() { m.getPage(1000) },
		"getBlock":  func() { m.getBlock(10) },
		"NewSlab":   func() { m.NewSlab(10) },
		"Alloc":     func() { m.NewGroup().Alloc(8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Close did not panic", name)
				}
			}()
			ask()
		}()
	}
}

// TestCloseUnderLiveGroup: Close never unmaps memory a live group or slab
// may still read. Their bytes stay readable and in BytesInUse, and their
// release unmaps them rather than pooling them.
func TestCloseUnderLiveGroup(t *testing.T) {
	m := NewManager(256, 0)
	g := m.NewGroup()
	var want [][]byte
	var ptrs []Ptr
	for i := range 40 {
		b := bytes.Repeat([]byte{byte(i)}, 1+i*9) // standard pages and oversized ones
		want = append(want, b)
		ptrs = append(ptrs, g.Append(b))
	}
	s := m.NewSlab(100)
	copy(s.Bytes(), "slab bytes")
	spare := m.NewGroup()
	spare.Alloc(200)
	spare.Release() // one page pooled: Close unmaps it

	m.Close()
	if st, live := m.Stats(), g.Footprint()+s.Footprint(); st.BytesInUse != live || st.BytesPooled != 0 {
		t.Errorf("closed under a live group: %+v, want %d bytes in use and none pooled", st, live)
	}
	for i, p := range ptrs {
		if !bytes.Equal(g.Bytes(p, len(want[i])), want[i]) {
			t.Fatalf("segment %d changed under Close", i)
		}
	}
	if string(s.Bytes()[:10]) != "slab bytes" {
		t.Error("the slab changed under Close")
	}
	g.Release()
	s.Release()
	if st := m.Stats(); st.BytesInUse != 0 || st.BytesPooled != 0 || st.LiveGroups != 0 {
		t.Errorf("released after Close: %+v, want nothing in use or pooled", st)
	}
}

// rssAnon is the process's resident anonymous memory; the test is skipped
// where the kernel does not report it.
func rssAnon(t *testing.T) int64 {
	t.Helper()
	n := gcstats.ReadProcMem().RSSAnon
	if n == 0 {
		t.Skip("no RssAnon in /proc/self/status on this platform")
	}
	return n
}

const touched = 64 << 20

// fillAndRelease maps, touches and releases touched bytes of 1 MiB pages:
// afterwards every one of them sits in m's pool.
func fillAndRelease(m *Manager) {
	g := m.NewGroup()
	for range touched / m.PageSize() {
		seg, _ := g.Alloc(m.PageSize())
		for i := 0; i < len(seg); i += 4096 {
			seg[i] = 1
		}
	}
	g.Release()
}

// TestReleasedMemoryLeavesTheProcess is release at lifetime end as the
// kernel sees it: 64 MiB of pages mapped, touched, released and closed
// leave RssAnon within a few MB of where it started, which memory the
// collector had to give back could not promise.
func TestReleasedMemoryLeavesTheProcess(t *testing.T) {
	before := rssAnon(t)
	m := NewManager(1<<20, 0)
	fillAndRelease(m)
	if held := rssAnon(t) - before; held < touched*3/4 {
		t.Fatalf("64 MiB of touched pages raised RssAnon by only %d MiB: the test measures nothing", held>>20)
	}
	m.Close()
	if after := rssAnon(t); after > before+8<<20 {
		t.Errorf("RssAnon %d MiB after Close, %d MiB before the pages: the mappings outlived their manager", after>>20, before>>20)
	}
}

// TestUnclosedManagerPoolIsUnmapped: a manager nobody closed, holding only
// pooled pages, has them unmapped by its cleanup once it is unreachable.
func TestUnclosedManagerPoolIsUnmapped(t *testing.T) {
	before := rssAnon(t)
	fillAndRelease(NewManager(1<<20, 0))
	if held := rssAnon(t) - before; held < touched*3/4 {
		t.Fatalf("64 MiB of pooled pages raised RssAnon by only %d MiB: the test measures nothing", held>>20)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		runtime.GC() // the cleanup is queued by a cycle and runs after it
		if rssAnon(t) <= before+8<<20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("RssAnon still %d MiB above its start 5 s after the manager became unreachable", (rssAnon(t)-before)>>20)
		}
	}
}
