package cache

import (
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"deca/internal/decompose"
	"deca/internal/memory"
)

// parkedBlock is a scripted Block whose SwapIn announces itself on entered
// and returns what the test sends on resume. Its state is plain fields,
// written by SwapIn on both sides of the park: anything in the manager that
// reads the block while it loads is a race the detector reports.
type parkedBlock struct {
	swapFile
	size     int64
	resident bool
	swapIns  int
	dropped  bool
	entered  chan struct{}
	resume   chan error
}

func newParkedBlock(size int64) *parkedBlock {
	return &parkedBlock{size: size, resident: true, entered: make(chan struct{}), resume: make(chan error)}
}

func (b *parkedBlock) Count() int      { return 1 }
func (b *parkedBlock) InMemory() bool  { return b.resident }
func (b *parkedBlock) Swappable() bool { return true }
func (b *parkedBlock) MemBytes() int64 {
	if !b.resident {
		return 0
	}
	return b.size
}
func (b *parkedBlock) SwapOut(dir string) error {
	b.resident = false
	return b.writeOnce(dir, "deca-swap-test-*.bin", func(w io.Writer) error { return nil })
}
func (b *parkedBlock) SwapIn() error {
	b.swapIns++
	b.resident = false
	b.entered <- struct{}{}
	err := <-b.resume
	b.resident = err == nil
	return err
}
func (b *parkedBlock) Drop() {
	b.resident, b.dropped = false, true
	b.remove()
}

type getResult struct {
	ok  bool
	err error
}

func goGet(m *Manager, id BlockID) chan getResult {
	done := make(chan getResult, 1)
	go func() {
		_, ok, err := m.Get(id)
		done <- getResult{ok, err}
	}()
	return done
}

// returns fails the test if f is still running after ten seconds: the
// manager's lock is held by something that should not hold it, or a loop
// under it does not end.
func returns(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// pins waits until the entry holds n pins — a Get that has taken its pin is
// at, or one step from, the wait for the load.
func pins(t *testing.T, m *Manager, e *entry, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		m.mu.Lock()
		got := e.pinned
		m.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pinned = %d, want %d", got, n)
		}
	}
}

// loadingManager returns a manager holding resident block b and swapped-out
// block a, with a Get of a parked inside its SwapIn.
func loadingManager(t *testing.T) (m *Manager, a, b *parkedBlock, ea *entry, first chan getResult) {
	t.Helper()
	m = NewManager(40, t.TempDir())
	a, b = newParkedBlock(32), newParkedBlock(32)
	for i, blk := range []*parkedBlock{a, b} {
		id := BlockID{Dataset: 1, Partition: i}
		if err := m.Put(id, blk); err != nil {
			t.Fatal(err)
		}
		m.Unpin(id)
	}
	if a.resident || !a.OnDisk() || !b.resident {
		t.Fatalf("set-up: a resident=%v on disk=%v, b resident=%v", a.resident, a.OnDisk(), b.resident)
	}
	ea = m.blocks[BlockID{1, 0}]
	first = goGet(m, BlockID{1, 0})
	<-a.entered
	return m, a, b, ea, first
}

func TestSwapInLeavesTheLock(t *testing.T) {
	m, a, _, ea, first := loadingManager(t)
	idA, idB := BlockID{1, 0}, BlockID{1, 1}

	returns(t, "Get/Unpin of a resident block while another loads", func() {
		if _, ok, err := m.Get(idB); !ok || err != nil {
			t.Errorf("Get(b) while a loads: ok=%v err=%v", ok, err)
		}
		m.Unpin(idB)
	})
	returns(t, "Stats while a block loads", func() {
		// The loading block already counts as resident, at what it gave up.
		if st := m.Stats(); st.MemBytes != 64 || st.SwappedBytes != 0 {
			t.Errorf("mid-load MemBytes = %d, SwappedBytes = %d, want 64, 0", st.MemBytes, st.SwappedBytes)
		}
	})

	second := goGet(m, idA)
	pins(t, m, ea, 2)
	select {
	case r := <-second:
		t.Fatalf("second Get(a) returned %+v before the load ended", r)
	default:
	}
	a.resume <- nil
	for _, done := range []chan getResult{first, second} {
		if r := <-done; !r.ok || r.err != nil {
			t.Errorf("Get(a) = %+v, want a hit", r)
		}
	}
	if a.swapIns != 1 || ea.pinned != 2 {
		t.Errorf("swapIns = %d, pinned = %d, want 1, 2", a.swapIns, ea.pinned)
	}
	if st := m.Stats(); st.SwapInBytes != 32 || st.Hits != 3 {
		t.Errorf("stats after the load = %+v", st)
	}
}

func TestUnpersistDuringLoad(t *testing.T) {
	m, a, b, ea, first := loadingManager(t)
	path := a.path
	second := goGet(m, BlockID{1, 0})
	pins(t, m, ea, 2)

	returns(t, "Unpersist while a block loads", func() { m.Unpersist(1) })
	if a.dropped || !b.dropped {
		t.Fatalf("mid-load Unpersist: a dropped=%v (its loader's job), b dropped=%v", a.dropped, b.dropped)
	}
	a.resume <- nil
	for _, done := range []chan getResult{first, second} {
		if r := <-done; r.ok || r.err != nil {
			t.Errorf("Get of an unpersisted block = %+v, want a miss", r)
		}
	}
	if !a.dropped || a.swapIns != 1 {
		t.Errorf("dropped = %v, swapIns = %d after the loader saw the removal", a.dropped, a.swapIns)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("swap file %s survived the drop: %v", path, err)
	}
	if m.Contains(BlockID{1, 0}) || m.Stats().MemBytes != 0 {
		t.Errorf("cache still holds something: %+v", m.Stats())
	}
}

func TestFailedSwapInUnpinsAndWakes(t *testing.T) {
	m, a, _, ea, first := loadingManager(t)
	second := goGet(m, BlockID{1, 0})
	pins(t, m, ea, 2)

	// The waiter is woken by the failure and tries the load itself.
	boom := errors.New("boom")
	a.resume <- boom
	<-a.entered
	a.resume <- boom
	for _, done := range []chan getResult{first, second} {
		if r := <-done; r.ok || !errors.Is(r.err, boom) {
			t.Errorf("Get = %+v, want the SwapIn error", r)
		}
	}
	if ea.pinned != 0 || ea.loading || !m.Contains(BlockID{1, 0}) {
		t.Errorf("pinned = %d, loading = %v after two failed loads", ea.pinned, ea.loading)
	}
}

// TestUnpersistUnderAPinnedScan: Clear, Unpersist and a replacing Put take
// a block out of the cache while a reader holds it pinned, and return; the
// reader goes on scanning the pages it was given — manager pages that have
// not been recycled, a mapping that has not been unmapped — and the block,
// its file included, goes with the reader's Unpin.
func TestUnpersistUnderAPinnedScan(t *testing.T) {
	const pageSize, perBlock = 64, 20 // two full pages and a half
	vals := func(base int64) []int64 {
		v := make([]int64, perBlock)
		for i := range v {
			v[i] = base + int64(i)
		}
		return v
	}
	id := BlockID{Dataset: 6, Partition: 0}
	removals := map[string]func(t *testing.T, m *Manager, mem *memory.Manager){
		"Clear":     func(_ *testing.T, m *Manager, _ *memory.Manager) { m.Clear() },
		"Unpersist": func(_ *testing.T, m *Manager, _ *memory.Manager) { m.Unpersist(id.Dataset) },
		"Put": func(t *testing.T, m *Manager, mem *memory.Manager) {
			if err := m.Put(id, NewDecaBlock[int64](mem, decompose.Int64Codec{}, vals(-100))); err != nil {
				t.Error(err)
			}
		},
	}
	for name, remove := range removals {
		for _, state := range []string{"on its pages", "mapped"} {
			t.Run(name+" of a block "+state, func(t *testing.T) {
				mem := memory.NewManager(pageSize, 0)
				dir := t.TempDir()
				m := NewManager(0, dir)
				blk := NewDecaBlock[int64](mem, decompose.Int64Codec{}, vals(7))
				if state == "mapped" {
					if err := blk.SwapOut(dir); err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Put(id, blk); err != nil {
					t.Fatal(err)
				}
				m.Unpin(id)
				got, ok, err := m.Get(id) // the reader's pin
				if !ok || err != nil {
					t.Fatalf("Get: ok=%v err=%v", ok, err)
				}
				g := got.(*DecaBlock[int64]).Group()

				returns(t, name, func() { remove(t, m, mem) })
				if name != "Put" && m.Contains(id) {
					t.Error("the block is still in the cache")
				}
				// Anything the removal freed is what the next builder takes.
				scratch := NewDecaBlock[int64](mem, decompose.Int64Codec{}, vals(-1))
				next := int64(7)
				for i := 0; i < g.NumPages(); i++ {
					page := g.Page(i)
					for off := 0; off < len(page); off += 8 {
						if v := decompose.I64(page, off); v != next {
							t.Fatalf("page %d offset %d reads %d after the removal, want %d", i, off, v, next)
						}
						next++
					}
				}
				if next != 7+perBlock {
					t.Errorf("scanned %d records of %d", next-7, perBlock)
				}
				scratch.Drop()
				if blk.Group() == nil || blk.OnDisk() != (state == "mapped") {
					t.Fatal("the block was dropped under its reader")
				}

				m.Unpin(id)
				if name == "Put" {
					// The reader's Unpin cannot be told from the producer's:
					// the old block goes when both have come.
					m.Unpin(id)
				}
				if blk.Group() != nil || blk.OnDisk() {
					t.Error("the last Unpin did not drop the block")
				}
				m.Clear()
				if files, _ := os.ReadDir(dir); len(files) != 0 {
					t.Errorf("%d swap files left", len(files))
				}
				if st := mem.Stats(); st.BytesInUse != 0 || st.LiveGroups != 0 {
					t.Errorf("the manager still holds %+v", st)
				}
				if len(m.leaving) != 0 {
					t.Errorf("%d removed entries never left", len(m.leaving))
				}
			})
		}
	}
}
