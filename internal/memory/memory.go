// Package memory implements Deca's page-based memory manager (§4.3.1).
//
// Deca stores decomposed objects in logical memory pages: byte arrays with
// a common fixed size. Each data container (cache block, shuffle buffer)
// owns a page group; a page-info structure tracks the group's pages, the
// end offset of the last page, and a sequential cursor. The pages are not
// Go heap at all but spans of anonymous mappings, so the garbage collector
// neither traces them nor paces itself on them.
//
// Where memory comes from and where it goes: a manager takes every page
// and slab from the reserve below all managers, which cuts spans from
// 2 MiB-aligned chunks that the kernel is advised to back with huge pages
// (mapChunk, adviseHuge). When a container's lifetime ends, releasing its
// group gives all of its space back to the reserve at once, which parks up
// to its cap (reserveCap), dirty, for the next page or slab of any manager
// and unmaps the rest, so the kernel has it back. A process whose jobs run
// one after another thus pays its page faults once: the next job's pages
// are the last job's, and a page one executor released is the next one
// another executor asks for.
//
// The price of huge pages: a touched byte makes its whole 2 MiB resident,
// so a span's untouched tail may cost memory where with small pages it
// would not (ROADMAP 25(b)).
//
// The Manager accounts the bytes in use against an optional soft budget
// that the cache and shuffle layers consult for eviction and spilling
// decisions.
package memory

import (
	"fmt"
	"sync"
	"sync/atomic"

	"deca/internal/obs"
)

// DefaultPageSize is the page size used when a Manager is created with a
// non-positive size. The paper picks page sizes so that each executor holds
// only a moderate number of pages; 1 MiB gives that for laptop-scale heaps.
const DefaultPageSize = 1 << 20

// Manager hands out fixed-size pages and slabs from its reserve, gives
// released ones straight back to it, and tracks a soft memory budget. It
// keeps no free memory of its own, only its ledger. It is safe for
// concurrent use.
//
// Close ends the manager's lifetime. Memory not in use is never the
// manager's, so one nobody closes strands nothing.
type Manager struct {
	pageSize int
	limit    int64 // soft budget in bytes; 0 means unlimited
	res      *reserve

	mu         sync.Mutex
	closed     bool
	inUse      int64 // bytes of live pages (allocated to groups) and slabs
	allocated  int64 // pages and slabs the reserve cut fresh from a chunk
	reused     int64 // pages and slabs the reserve had parked
	released   int64 // pages returned by group release, slabs by theirs
	adopted    int64 // pages this manager's groups adopted (AdoptPages)
	liveGroups int64
}

// NewManager returns a Manager with the given page size and soft budget in
// bytes (0 = unlimited). Non-positive pageSize selects DefaultPageSize.
func NewManager(pageSize int, limit int64) *Manager {
	return newManager(pageSize, limit, &processReserve)
}

// newManager is NewManager over the reserve res.
func newManager(pageSize int, limit int64, res *reserve) *Manager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Manager{pageSize: pageSize, limit: limit, res: res}
}

// Close ends the manager's lifetime: asking for a page or a slab
// afterwards panics. Memory a live group or slab still holds stays where
// it is — the group may still be read — and stays in PageBytesInUse until
// its release gives it to the reserve. A second Close is a no-op.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
}

// PageSize returns the fixed page size in bytes.
func (m *Manager) PageSize() int { return m.pageSize }

// Limit returns the soft budget (0 = unlimited).
func (m *Manager) Limit() int64 { return m.limit }

// Counters reads the manager's account into its rows of the counter
// table: the page counts, and the gauges a lifetime end brings back to
// zero (bytes in use, live groups). The reserve's bytes are the process's,
// not the manager's (ReserveBytes).
func (m *Manager) Counters() (v obs.CounterValues) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v[obs.PagesAllocated] = m.allocated
	v[obs.PagesReused] = m.reused
	v[obs.PagesReleased] = m.released
	v[obs.PagesAdopted] = m.adopted
	v[obs.PageBytesInUse] = m.inUse
	v[obs.PageGroupsLive] = m.liveGroups
	return v
}

// getPage returns a zero-length page with capacity ≥ want: the page size,
// or want for an oversized single object.
func (m *Manager) getPage(want int) []byte {
	p, _ := m.take(max(want, m.pageSize))
	return p
}

// take returns a zero-length slice of capacity n from the reserve, zeroed
// only when fresh is true, and books it.
func (m *Manager) take(n int) (b []byte, fresh bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		panic("memory: page or slab requested from a closed manager")
	}
	if b, fresh = m.res.take(n); fresh {
		m.allocated++
	} else {
		m.reused++
	}
	m.inUse += int64(n)
	return b, fresh
}

// give books the pages and slabs in bs as released and gives them to the
// reserve. A restored empty page (capacity 0) took nothing and gives
// nothing back.
func (m *Manager) give(bs ...[]byte) {
	m.mu.Lock()
	for _, b := range bs {
		if cap(b) > 0 {
			m.inUse -= int64(cap(b))
			m.released++
		}
	}
	m.mu.Unlock()
	m.res.give(bs...)
}

// Slab is a block of manager memory that belongs to a container rather
// than to its page group: a segment of the hash-index table over the
// group's records. It is charged to the budget like a page and given back
// on release like one, but comes in whatever size is asked for — a
// 16-slot table does not cost a page — and is zeroed, whether the reserve
// had it parked or cut it fresh. The zero Slab is empty; Release is
// idempotent, so a container's double Release returns the memory once.
type Slab struct {
	m   *Manager
	buf []byte
}

// NewSlab returns a zeroed slab of n > 0 bytes.
func (m *Manager) NewSlab(n int) Slab {
	buf, fresh := m.take(n)
	if buf = buf[:n]; !fresh {
		clear(buf)
	}
	return Slab{m: m, buf: buf}
}

// Bytes returns the slab's n bytes (nil once released), 8-byte aligned
// like all manager memory (mapChunk).
func (s *Slab) Bytes() []byte { return s.buf }

// Footprint returns the bytes the manager charges for the slab.
func (s *Slab) Footprint() int64 { return int64(cap(s.buf)) }

// Release gives the memory back to the reserve.
func (s *Slab) Release() {
	if s.buf == nil {
		return
	}
	s.m.give(s.buf)
	s.buf = nil
}

// Ptr locates the start of a byte segment within a page group: page index
// and offset within the page. It is the in-page pointer the shuffle
// buffers' pointer arrays store (§4.3.2, Figure 6).
type Ptr struct {
	Page int32
	Off  int32
}

func (p Ptr) String() string { return fmt.Sprintf("page %d off %d", p.Page, p.Off) }

// Rebase translates a pointer minted inside a source group into the
// address space of a group that adopted the source's pages at page index
// base (the value AdoptPages returned). It is the group-spanning segment
// reference of the zero-copy shuffle merge: a merged container addresses
// segments across several retained source groups through rebased
// pointers, without the bytes ever moving.
func (p Ptr) Rebase(base int) Ptr {
	return Ptr{Page: p.Page + int32(base), Off: p.Off}
}

// Group is a page group plus its page-info metadata (§4.3.1): the page
// array, the end offset of the unused part of the last page, and a
// reference count used when secondary containers share the group
// (§4.3.3). Groups are not safe for concurrent mutation; the reference
// count is atomic so release may happen from any goroutine.
//
// Objects never span pages: an allocation that does not fit in the last
// page's remainder starts a new page. Oversized allocations get a
// dedicated, larger page.
//
// A group's page array may mix pages it allocated itself with pages
// *adopted* from other groups (AdoptPages): adopted pages are addressed
// exactly like owned ones — cursors and pointers span them transparently —
// but they are returned to the manager by their owning group, whose
// lifetime the adopter pins through deps.
type Group struct {
	m     *Manager
	pages [][]byte
	// adopted marks pages shared from another group via AdoptPages; nil
	// until the first adoption, so the common non-merged group pays
	// nothing. Adopted pages are excluded from reclaim and sealed
	// against further Alloc.
	adopted []bool
	bytes   int64
	refs    atomic.Int32
	deps    []*Group // page groups of primary containers (Fig. 7(a) depPages)
	// mapping is the file mapping every page is a view of (MapGroup); nil
	// for a group of manager pages. A mapped group holds no manager memory.
	mapping []byte
}

// NewGroup returns an empty page group with reference count 1.
func (m *Manager) NewGroup() *Group {
	g := &Group{m: m}
	g.refs.Store(1)
	m.mu.Lock()
	m.liveGroups++
	m.mu.Unlock()
	return g
}

// Alloc reserves n contiguous bytes and returns the writable segment along
// with its pointer. The segment is zeroed only if it comes from a fresh
// page; callers overwrite it fully.
func (g *Group) Alloc(n int) ([]byte, Ptr) {
	g.checkLive()
	if n < 0 {
		panic("memory: negative allocation")
	}
	if g.mapping != nil {
		panic("memory: Alloc on a mapped page group")
	}
	last := len(g.pages) - 1
	if last < 0 || g.isAdopted(last) || cap(g.pages[last])-len(g.pages[last]) < n {
		g.pages = append(g.pages, g.m.getPage(n))
		if g.adopted != nil {
			g.adopted = append(g.adopted, false)
		}
		last = len(g.pages) - 1
	}
	p := g.pages[last]
	off := len(p)
	g.pages[last] = p[:off+n]
	g.bytes += int64(n)
	return g.pages[last][off : off+n], Ptr{Page: int32(last), Off: int32(off)}
}

// Append copies b into the group and returns its pointer.
func (g *Group) Append(b []byte) Ptr {
	seg, ptr := g.Alloc(len(b))
	copy(seg, b)
	return ptr
}

// Bytes returns the n-byte segment starting at ptr. It panics if the range
// is out of bounds — that is a decomposition-safety bug, the condition
// Deca's classification exists to prevent.
func (g *Group) Bytes(ptr Ptr, n int) []byte {
	g.checkLive()
	return g.pages[ptr.Page][ptr.Off : int(ptr.Off)+n]
}

// CheckedBytes is Bytes returning an error instead of panicking, for
// callers validating untrusted pointers (e.g. after reloading a spill).
func (g *Group) CheckedBytes(ptr Ptr, n int) ([]byte, error) {
	if g.refs.Load() <= 0 {
		return nil, fmt.Errorf("memory: use of released page group")
	}
	if ptr.Page < 0 || int(ptr.Page) >= len(g.pages) {
		return nil, fmt.Errorf("memory: page %d out of range (%d pages)", ptr.Page, len(g.pages))
	}
	p := g.pages[ptr.Page]
	if ptr.Off < 0 || int(ptr.Off)+n > len(p) {
		return nil, fmt.Errorf("memory: segment [%d,%d) out of range (page len %d)", ptr.Off, int(ptr.Off)+n, len(p))
	}
	return p[ptr.Off : int(ptr.Off)+n], nil
}

// Page returns the used portion of page i.
func (g *Group) Page(i int) []byte {
	g.checkLive()
	return g.pages[i]
}

// NumPages returns the number of pages in the group.
func (g *Group) NumPages() int { return len(g.pages) }

// Len returns the total number of data bytes stored.
func (g *Group) Len() int64 { return g.bytes }

// Footprint returns the bytes of manager page capacity held: ≥ Len, or 0
// for a mapped group, whose pages are the page cache's.
func (g *Group) Footprint() int64 {
	if g.mapping != nil {
		return 0
	}
	var total int64
	for _, p := range g.pages {
		total += int64(cap(p))
	}
	return total
}

// Retain increments the reference count: a secondary container sharing the
// group copies its page-info and retains it (§4.3.3).
func (g *Group) Retain() *Group {
	if g.refs.Add(1) <= 1 {
		panic("memory: Retain on released page group")
	}
	return g
}

// AddDep records a dependency on another group (the depPages field of a
// secondary container's page-info, Figure 7(a)) and retains it. The
// dependency is released when g is.
func (g *Group) AddDep(dep *Group) {
	g.checkLive()
	g.deps = append(g.deps, dep.Retain())
}

// isAdopted reports whether page i was adopted from another group.
func (g *Group) isAdopted(i int) bool { return g.adopted != nil && g.adopted[i] }

// AdoptPages appends src's page array to g by reference — no data bytes
// move — and returns the page index the first adopted page landed on, so
// pointers into src translate into g with Ptr.Rebase(base). The source
// group is retained as a dependency (AddDep) and stays alive, with its
// pages returning to its own manager exactly once, until g releases.
//
// This is the zero-copy merge primitive: a reduce-side container adopts
// each fetched map output's page group and addresses all of them through
// one group-spanning page array. Adopted pages are sealed — a subsequent
// Alloc on g starts a fresh owned page rather than extending a shared
// one. The caller owns the transfer contract: after adopting, the source
// must not grow, and segments reachable from g may be mutated in place
// (combine-in-place on key collisions), so the source's contents must not
// be read independently afterwards.
func (g *Group) AdoptPages(src *Group) int {
	g.checkLive()
	src.checkLive()
	if src == g {
		panic("memory: group cannot adopt its own pages")
	}
	base := len(g.pages)
	if len(src.pages) == 0 {
		return base
	}
	if g.adopted == nil {
		g.adopted = make([]bool, base, base+len(src.pages))
	}
	g.pages = append(g.pages, src.pages...)
	for range src.pages {
		g.adopted = append(g.adopted, true)
	}
	g.bytes += src.bytes
	g.AddDep(src)
	src.rehome(g.m)
	g.m.mu.Lock()
	g.m.adopted += int64(len(src.pages))
	g.m.mu.Unlock()
	return base
}

// rehome transfers the group's page accounting to the adopter's manager,
// whose ledger books the owned pages' release, then re-homes its own
// dependencies the same way. Cross-executor adoption (a reduce container
// adopting a map output allocated on another executor) would otherwise
// leave the source executor's budget charged for bytes the reduce
// executor's container now holds, for as long as the memoized shuffle
// output lives.
func (g *Group) rehome(dst *Manager) {
	if g.m == dst {
		return
	}
	var owned int64
	if g.mapping == nil { // a mapped group's pages were never charged
		for i, p := range g.pages {
			if !g.isAdopted(i) {
				owned += int64(cap(p))
			}
		}
	}
	src := g.m
	src.mu.Lock()
	src.inUse -= owned
	src.liveGroups--
	src.mu.Unlock()
	dst.mu.Lock()
	dst.inUse += owned
	dst.liveGroups++
	dst.mu.Unlock()
	g.m = dst
	for _, d := range g.deps {
		d.rehome(dst)
	}
}

// reclaim returns g's owned pages to its manager — or unmaps the file they
// are views of — and drops the page array; adopted pages are left to their
// owning groups, which the caller releases through deps.
func (g *Group) reclaim() {
	if g.mapping != nil {
		unmap(g.mapping)
		g.mapping = nil
	} else if g.adopted == nil {
		g.m.give(g.pages...)
	} else {
		owned := g.pages[:0]
		for i, p := range g.pages {
			if !g.adopted[i] {
				owned = append(owned, p)
			}
		}
		g.m.give(owned...)
	}
	g.pages = nil
	g.adopted = nil
	g.bytes = 0
}

// Release decrements the reference count; the last release gives all
// owned pages back to the reserve and releases dependencies. Releasing more
// times than retained panics: refcount bugs must not be silent.
func (g *Group) Release() {
	n := g.refs.Add(-1)
	if n < 0 {
		panic("memory: page group over-released")
	}
	if n > 0 {
		return
	}
	g.reclaim()
	g.m.mu.Lock()
	g.m.liveGroups--
	g.m.mu.Unlock()
	for _, d := range g.deps {
		d.Release()
	}
	g.deps = nil
}

// Reset drops the group's content but keeps it alive, giving its owned
// pages back to the reserve and releasing any adopted dependencies. Used when a
// shuffle buffer spills and restarts.
func (g *Group) Reset() {
	g.checkLive()
	g.reclaim()
	for _, d := range g.deps {
		d.Release()
	}
	g.deps = nil
}

// Refs returns the current reference count (for tests and diagnostics).
func (g *Group) Refs() int32 { return g.refs.Load() }

func (g *Group) checkLive() {
	if g.refs.Load() <= 0 {
		panic("memory: use of released page group")
	}
}
