// Package memory implements Deca's page-based memory manager (§4.3.1).
//
// Deca stores decomposed objects in logical memory pages: byte arrays with
// a common fixed size. Each data container (cache block, shuffle buffer)
// owns a page group; a page-info structure tracks the group's pages, the
// end offset of the last page, and a sequential cursor. The pages are not
// Go heap at all but anonymous mappings (newBytes), so the garbage
// collector neither traces them nor paces itself on them. When a
// container's lifetime ends, releasing the group reclaims all of its space
// at once; when a mapping's own lifetime ends — it does not fit in the
// pool, or it is in the pool when the manager closes — the manager unmaps
// it, and the kernel has the memory back.
//
// The Manager hands out pages from a free pool so that steady-state
// execution maps no new memory at all, and accounts the bytes in use
// against an optional soft budget that the cache and shuffle layers
// consult for eviction and spilling decisions.
package memory

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"deca/internal/obs"
)

// DefaultPageSize is the page size used when a Manager is created with a
// non-positive size. The paper picks page sizes so that each executor holds
// only a moderate number of pages; 1 MiB gives that for laptop-scale heaps.
const DefaultPageSize = 1 << 20

// Stats is a snapshot of manager counters.
type Stats struct {
	PageSize       int
	PagesAllocated uint64 // pages and slabs freshly mapped (newBytes)
	PagesReused    uint64 // pages and slabs served from the free pool
	PagesReleased  uint64 // pages returned by group release, slabs by theirs
	BytesInUse     int64  // bytes of live pages (allocated to groups) and slabs
	BytesPooled    int64  // bytes parked in the free pool
	LiveGroups     int64
}

// Manager allocates fixed-size pages, pools released ones, and tracks a
// soft memory budget. It is safe for concurrent use.
//
// The pool keeps standard-size pages in a LIFO stack served by popping the
// tail (O(1) under the global mutex — the hot path every shuffle buffer
// and cache block allocation takes), and everything that is not a standard
// page — the slabs containers keep their index tables in (Slab), a
// restored frame's short last page, the rare oversized page of a single
// object larger than the page size — as blocks in size classes, one per
// power of two, searched only within the request's class. putBlock says
// which blocks pool.
//
// Close ends the manager's lifetime. A manager nobody closes has its pool
// unmapped by a cleanup once it is unreachable; nothing else can be left
// to unmap by then, because every group and slab holds its manager.
type Manager struct {
	pageSize int
	limit    int64 // soft budget in bytes; 0 means unlimited

	mu         sync.Mutex
	pool       *pool // an object of its own, so the cleanup that unmaps it does not keep the manager reachable
	poolMax    int64 // max bytes kept in the pool, pages and blocks together
	closed     bool
	inUse      int64
	pooled     int64
	allocated  uint64
	reused     uint64
	released   uint64
	liveGroups int64

	// rec receives page lifecycle events (nil = observability off). Set
	// once via SetRecorder before the manager sees concurrent use; events
	// carry only counts and byte sizes, never Ptrs or Groups.
	rec     *obs.Recorder
	recExec int32
}

// SetRecorder attaches an observability recorder; page alloc / adopt /
// release events are tagged with exec. Call before concurrent use.
func (m *Manager) SetRecorder(r *obs.Recorder, exec int32) {
	m.rec = r
	m.recExec = exec
}

// NewManager returns a Manager with the given page size and soft budget in
// bytes (0 = unlimited). Non-positive pageSize selects DefaultPageSize.
func NewManager(pageSize int, limit int64) *Manager {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	m := &Manager{pageSize: pageSize, limit: limit, pool: new(pool)}
	// Keep at most the budget's worth of pages pooled, or a generous
	// default when unlimited.
	m.poolMax = 1024 * int64(pageSize)
	if n := limit / int64(pageSize); n > 0 {
		m.poolMax = n * int64(pageSize)
	}
	runtime.AddCleanup(m, (*pool).unmap, m.pool)
	return m
}

// pool is a manager's free memory: standard-size pages, and blocks by size
// class. Guarded by the manager's mu.
type pool struct {
	free   [][]byte                // standard-size pages; pop from the tail
	blocks [bits.UintSize][][]byte // class c holds capacities in [2^c, 2^(c+1))
}

// unmap ends every pooled mapping and empties the pool.
func (p *pool) unmap() {
	for _, b := range p.free {
		freeBytes(b)
	}
	p.free = nil
	for c := range p.blocks {
		for _, b := range p.blocks[c] {
			freeBytes(b)
		}
		p.blocks[c] = nil
	}
}

// Close ends the manager's lifetime: every pooled mapping is unmapped at
// once, and asking for a page or a slab afterwards panics. Memory a live
// group or slab still holds stays mapped — the group may still be read —
// and stays in Stats.BytesInUse until its release, which unmaps it instead
// of pooling it. A second Close is a no-op.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pool.unmap()
	m.pooled = 0
}

// checkOpenLocked panics on a closed manager; called with m.mu held, which
// it releases before panicking.
func (m *Manager) checkOpenLocked() {
	if m.closed {
		m.mu.Unlock()
		panic("memory: page or slab requested from a closed manager")
	}
}

// PageSize returns the fixed page size in bytes.
func (m *Manager) PageSize() int { return m.pageSize }

// Limit returns the soft budget (0 = unlimited).
func (m *Manager) Limit() int64 { return m.limit }

// InUse returns the bytes currently held by live page groups.
func (m *Manager) InUse() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// OverBudget reports whether live pages exceed the soft budget.
func (m *Manager) OverBudget() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.limit > 0 && m.inUse > m.limit
}

// Stats returns a snapshot of the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		PageSize:       m.pageSize,
		PagesAllocated: m.allocated,
		PagesReused:    m.reused,
		PagesReleased:  m.released,
		BytesInUse:     m.inUse,
		BytesPooled:    m.pooled,
		LiveGroups:     m.liveGroups,
	}
}

// getPage returns a zero-length page with capacity ≥ want (normally the
// page size; larger only for oversized single objects). Standard requests
// pop the free stack's tail — O(1); an oversized one is a block of its own.
func (m *Manager) getPage(want int) []byte {
	if want > m.pageSize {
		b, _ := m.getBlock(want)
		return b
	}
	m.mu.Lock()
	if n := len(m.pool.free); n > 0 {
		p := m.pool.free[n-1]
		m.pool.free[n-1] = nil
		m.pool.free = m.pool.free[:n-1]
		m.pooled -= int64(cap(p))
		m.reused++
		m.inUse += int64(cap(p))
		unpoison(p)
		m.mu.Unlock()
		return p[:0]
	}
	m.checkOpenLocked()
	m.allocated++
	allocated := m.allocated
	m.inUse += int64(m.pageSize)
	m.mu.Unlock()
	m.rec.Record(obs.Event{
		Kind: obs.KindPageAlloc, Exec: m.recExec,
		A: int64(allocated), B: int64(m.pageSize),
	})
	return newBytes(m.pageSize)
}

// getBlock returns a zero-length block with capacity ≥ want: the best fit
// (the smallest that is large enough) among the pooled blocks of want's
// size class, or a fresh — zeroed — one of exactly want bytes. Staying
// inside the class bounds the waste at 2× and keeps a small request from
// taking the large block a sibling is about to ask for.
func (m *Manager) getBlock(want int) (b []byte, fresh bool) {
	m.mu.Lock()
	class := &m.pool.blocks[bits.Len(uint(want))-1]
	best := -1
	for i, b := range *class {
		if cap(b) >= want && (best < 0 || cap(b) < cap((*class)[best])) {
			best = i
		}
	}
	if best >= 0 {
		last := len(*class) - 1
		b = (*class)[best]
		(*class)[best], (*class)[last] = (*class)[last], nil
		*class = (*class)[:last]
		m.pooled -= int64(cap(b))
		m.reused++
		m.inUse += int64(cap(b))
		unpoison(b)
		m.mu.Unlock()
		return b, false
	}
	m.checkOpenLocked()
	m.allocated++
	allocated := m.allocated
	m.inUse += int64(want)
	m.mu.Unlock()
	m.rec.Record(obs.Event{
		Kind: obs.KindPageAlloc, Exec: m.recExec,
		A: int64(allocated), B: int64(want),
	})
	return newBytes(want), true
}

// bigMax is how many oversized pages a size class keeps pooled.
const bigMax = 16

// putBlock takes a block back and pools it in its size class, within the
// pool's byte bound, unless it is larger than a page and its class already
// holds bigMax blocks; a block that does not pool is unmapped on the spot.
// A pooled block is resident memory nobody uses, so what is parked here
// must be what the next request asks for: slabs are (a container's index
// takes them a segment at a time, all of one size past the small ones), a
// single object's oversized page rarely.
//
// Called with m.mu held.
func (m *Manager) putBlock(b []byte) {
	m.inUse -= int64(cap(b))
	m.released++
	class := &m.pool.blocks[bits.Len(uint(cap(b)))-1]
	if m.pools(b) && (cap(b) <= m.pageSize || len(*class) < bigMax) {
		poison(b)
		*class = append(*class, b[:0])
		m.pooled += int64(cap(b))
	} else {
		freeBytes(b)
	}
}

// pools reports whether b fits in an open manager's pool. Called with m.mu
// held.
func (m *Manager) pools(b []byte) bool {
	return !m.closed && m.pooled+int64(cap(b)) <= m.poolMax
}

// putPages returns pages to the pool, unmapping those the pool has no room
// for.
func (m *Manager) putPages(pages [][]byte) {
	if len(pages) > 0 {
		m.rec.Record(obs.Event{
			Kind: obs.KindPageRelease, Exec: m.recExec, A: int64(len(pages)),
		})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range pages {
		switch {
		case cap(p) == 0: // a restored empty page never came from the pool
		case cap(p) != m.pageSize:
			m.putBlock(p)
		default:
			m.inUse -= int64(cap(p))
			m.released++
			if m.pools(p) {
				poison(p)
				m.pool.free = append(m.pool.free, p[:0])
				m.pooled += int64(cap(p))
			} else {
				freeBytes(p)
			}
		}
	}
}

// Slab is a block of manager memory that belongs to a container rather
// than to its page group: a segment of the hash-index table over the
// group's records. It is charged to the budget like a page and pooled on
// release like one (putBlock), but comes in whatever size is asked for — a
// 16-slot table does not cost a page — and is zeroed, whether it came from
// the pool or a fresh mapping. The zero Slab is empty; Release is
// idempotent, so a container's double Release returns the memory once.
type Slab struct {
	m   *Manager
	buf []byte
}

// NewSlab returns a zeroed slab of n > 0 bytes.
func (m *Manager) NewSlab(n int) Slab {
	buf, fresh := m.getBlock(n)
	if buf = buf[:n]; !fresh {
		clear(buf)
	}
	return Slab{m: m, buf: buf}
}

// Bytes returns the slab's n bytes (nil once released), 8-byte aligned
// like all manager memory (newBytes).
func (s *Slab) Bytes() []byte { return s.buf }

// Footprint returns the bytes the manager charges for the slab.
func (s *Slab) Footprint() int64 { return int64(cap(s.buf)) }

// Release returns the memory to the manager's pool.
func (s *Slab) Release() {
	if s.buf == nil {
		return
	}
	s.m.mu.Lock()
	s.m.putBlock(s.buf)
	s.m.mu.Unlock()
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
	// nothing. Adopted pages are excluded from putPages and sealed
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

// EndOffset returns the start offset of the unused part of the last page
// (the paper's endOffset field). Zero when the group is empty.
func (g *Group) EndOffset() int {
	if len(g.pages) == 0 {
		return 0
	}
	return len(g.pages[len(g.pages)-1])
}

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

// Deps returns the dependent (primary) groups.
func (g *Group) Deps() []*Group { return g.deps }

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
	g.m.rec.Record(obs.Event{
		Kind: obs.KindPageAdopt, Exec: g.m.recExec, A: int64(len(src.pages)),
	})
	return base
}

// rehome transfers the group's page accounting — and the pool its owned
// pages will eventually return to — to the adopter's manager, then
// re-homes its own dependencies the same way. Cross-executor adoption
// (a reduce container adopting a map output allocated on another
// executor) would otherwise leave the source executor's budget charged
// for bytes the reduce executor's container now holds, for as long as
// the memoized shuffle output lives.
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
		g.m.putPages(g.pages)
	} else {
		owned := g.pages[:0]
		for i, p := range g.pages {
			if !g.adopted[i] {
				owned = append(owned, p)
			}
		}
		g.m.putPages(owned)
	}
	g.pages = nil
	g.adopted = nil
	g.bytes = 0
}

// Release decrements the reference count; the last release returns all
// pages to the manager's pool and releases dependencies. Releasing more
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

// Reset drops the group's content but keeps it alive, returning its owned
// pages to the pool and releasing any adopted dependencies. Used when a
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

// Cursor scans a group sequentially; it is the paper's (curPage,
// curOffset) pair. Next returns consecutive segments of caller-known
// sizes, as produced by sequential Alloc/Append calls.
type Cursor struct {
	g    *Group
	page int
	off  int
}

// Scan returns a cursor positioned at the first byte of the group.
func (g *Group) Scan() *Cursor { return &Cursor{g: g} }

// Done reports whether the cursor has consumed every byte.
func (c *Cursor) Done() bool {
	for c.page < len(c.g.pages) {
		if c.off < len(c.g.pages[c.page]) {
			return false
		}
		c.page++
		c.off = 0
	}
	return true
}

// Next returns the next n-byte segment. It panics when fewer than n bytes
// remain in the current page and the following page cannot satisfy the
// request either — segments never span pages, so a well-formed reader
// always asks for exactly the sizes that were written.
func (c *Cursor) Next(n int) []byte {
	c.g.checkLive()
	for c.page < len(c.g.pages) {
		p := c.g.pages[c.page]
		if c.off < len(p) {
			if c.off+n > len(p) {
				panic(fmt.Sprintf("memory: cursor read of %d bytes exceeds page remainder %d", n, len(p)-c.off))
			}
			seg := p[c.off : c.off+n]
			c.off += n
			return seg
		}
		c.page++
		c.off = 0
	}
	panic("memory: cursor read past end of page group")
}

// Ptr returns the position the next read will start from.
func (c *Cursor) Ptr() Ptr { return Ptr{Page: int32(c.page), Off: int32(c.off)} }

// Seek repositions the cursor.
func (c *Cursor) Seek(p Ptr) {
	c.page = int(p.Page)
	c.off = int(p.Off)
}
