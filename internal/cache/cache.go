// Package cache implements the cached-RDD container of the paper (§4.2):
// a block store keyed by (dataset, partition) with three representations,
// one per mode — plain object arrays (Spark), serialized bytes
// (SparkSer/Kryo), and decomposed page groups (Deca) — plus the LRU
// eviction and disk-swap machinery of Appendix C. A cached dataset's
// lifetime is explicit: it ends at Unpersist, at which point every block
// (and for Deca, every page group) is released at once.
//
// A block is immutable from the moment it is built, which makes eviction
// write-once: the first SwapOut writes the block's swap file and the file
// lives until the block is dropped (Unpersist, Clear, replacement, or a
// non-swappable eviction). What happens after that depends on the kind.
// An object or serialized block (the Spark baselines) is read back by
// SwapIn and kept, later SwapOuts only free its memory, and the LRU decides
// which of them are resident. A Deca block's file holds its pages exactly
// as the scan reads them (Appendix C), so the block is never read back: its
// one SwapOut releases the heap pages and maps the file, and from then on
// the block is that mapping — a Get of it is a hit that loads nothing, it
// occupies none of the budget, and it is never evicted again.
//
// The budget bounds what the process cannot give back: heap objects and
// the memory manager's pages. A clean read-only file mapping is page cache,
// which the kernel reclaims on its own under pressure and re-reads on the
// next touch; evicting it from here would free nothing.
//
// A block is dropped only when nobody reads it: Unpersist, Clear and a
// replacing Put take a pinned block out of the cache at once, but its
// memory, its mapping and its file go with the last Unpin.
package cache

import (
	"fmt"
	"sync"

	"deca/internal/obs"
)

// BlockID identifies a cache block: one partition of one cached dataset.
type BlockID struct {
	Dataset   int
	Partition int
}

func (id BlockID) String() string {
	return fmt.Sprintf("block(%d,%d)", id.Dataset, id.Partition)
}

// Block is one stored partition. Implementations are ObjectBlock,
// SerializedBlock and DecaBlock.
type Block interface {
	// Count is the number of records, known whether or not the block is
	// resident.
	Count() int
	// MemBytes is what the block now holds of the budget: heap objects or
	// manager pages. 0 once swapped out, whether the data then waits in the
	// file (object, serialized) or is read from it in place (Deca).
	MemBytes() int64
	// InMemory reports whether the data can be read as the block stands;
	// if not, SwapIn comes first.
	InMemory() bool
	// Swappable reports whether SwapOut can move the block to disk.
	Swappable() bool
	// OnDisk reports whether the block's swap file exists.
	OnDisk() bool
	// SwapOut frees the block's memory, first writing the block to a file
	// under dir unless it is already OnDisk.
	SwapOut(dir string) error
	// SwapIn makes a swapped-out block readable again; the file stays. A
	// no-op on a block that is InMemory.
	SwapIn() error
	// Drop releases all memory and disk resources. Nobody may be reading
	// the block.
	Drop()
}

type entry struct {
	block   Block
	use     uint64 // LRU clock
	pinned  int    // >0 while a task is reading or swapping the block
	swapped int64  // MemBytes the block gave up at its last eviction; 0 while resident
	// loading is set while one Get runs block.SwapIn outside the lock.
	// Until it clears, nobody else touches the block: it is counted as
	// resident at its swapped size, never a victim (its loader pins it),
	// and a Get for it waits on Manager.loaded.
	loading bool
	// removed says the entry left the map (Unpersist, Clear, a replacing
	// Put, a dropping eviction). A Get that was waiting on it reports a
	// miss; if that happened mid-load, the loader drops the block.
	removed bool
	// doomed are blocks that left the cache under this entry's id while
	// readers held them pinned — the entry's own, once it is removed, and
	// those a replacing Put inherited. The last Unpin drops them.
	doomed []Block
}

// memBytes is block.MemBytes for accounting: a block mid-load already
// counts as what it is about to occupy, without being read.
func (e *entry) memBytes() int64 {
	if e.loading {
		return e.swapped
	}
	return e.block.MemBytes()
}

// Manager is the executor-side cache manager: it accounts resident bytes
// against a budget and evicts least-recently-used blocks when inserting or
// swapping in would exceed it.
type Manager struct {
	mu      sync.Mutex
	budget  int64 // 0 = unlimited
	swapDir string
	blocks  map[BlockID]*entry
	// leaving holds the removed entries whose readers have yet to Unpin.
	leaving map[BlockID]*entry
	clock   uint64
	// counts holds the manager's rows of the run's counter table (the
	// Cache* counters, obs/counters.go) under mu; the two gauges are
	// computed on read.
	counts obs.CounterValues
	loaded sync.Cond // on mu: some entry's load just ended
}

// NewManager returns a cache manager with the given resident-byte budget
// (0 = unlimited) and swap directory ("" disables swapping; evictions then
// drop data).
func NewManager(budget int64, swapDir string) *Manager {
	m := &Manager{
		budget:  budget,
		swapDir: swapDir,
		blocks:  make(map[BlockID]*entry),
		leaving: make(map[BlockID]*entry),
	}
	m.loaded.L = &m.mu
	return m
}

// Budget returns the resident-byte budget.
func (m *Manager) Budget() int64 { return m.budget }

// Counters reads the manager's counter rows, with the CacheMemBytes and
// CacheSwappedBytes gauges summed over the blocks held now.
func (m *Manager) Counters() obs.CounterValues {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.counts
	for _, e := range m.blocks {
		v[obs.CacheMemBytes] += e.memBytes()
		if !e.loading {
			v[obs.CacheSwappedBytes] += e.swapped
		}
	}
	return v
}

func (m *Manager) residentLocked() int64 {
	var total int64
	for _, e := range m.blocks {
		total += e.memBytes()
	}
	return total
}

// Put inserts a freshly computed block, evicting under pressure. The block
// starts pinned; call Unpin when the producing task is done with it.
func (m *Manager) Put(id BlockID, b Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.blocks[id]; ok {
		m.removeLocked(id, old)
	}
	m.clock++
	e := &entry{block: b, use: m.clock, pinned: 1}
	if old := m.leaving[id]; old != nil {
		// Unpin names an id, not a block: the new entry takes over the old
		// readers' pins with the blocks they read, and all of it goes when
		// the count reaches zero.
		e.pinned += old.pinned
		e.doomed = old.doomed
		delete(m.leaving, id)
	}
	m.blocks[id] = e
	return m.reclaimLocked()
}

// Get returns the block and pins it. A block that is not InMemory — an
// object or serialized block after its eviction — is swapped back in first
// (possibly evicting others); a swapped-out Deca block is its file mapping
// and a hit like any other. ok is false when the block was never cached or
// was dropped under pressure — the caller recomputes, as Spark does.
//
// The swap-in's file read runs outside the lock, under the pin and the
// entry's loading mark, so hits, Unpins and Counters of other blocks do not
// queue behind it; a second Get of the same block waits for the load
// instead of starting another. (An eviction's first SwapOut, the one that
// writes the file, still runs under the lock in reclaimLocked: once per
// block.)
func (m *Manager) Get(id BlockID) (Block, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.blocks[id]
	if !ok {
		m.counts[obs.CacheMisses]++
		return nil, false, nil
	}
	m.clock++
	e.use = m.clock
	e.pinned++
	for e.loading {
		m.loaded.Wait()
	}
	if !e.removed && !e.block.InMemory() {
		e.loading = true
		m.mu.Unlock()
		err := e.block.SwapIn()
		m.mu.Lock()
		e.loading = false
		m.loaded.Broadcast()
		if e.removed {
			e.block.Drop()
		} else {
			if err == nil {
				m.counts[obs.CacheSwapInBytes] += e.block.MemBytes()
				e.swapped = 0
				err = m.reclaimLocked()
			}
			if err != nil {
				m.unpinLocked(id, e)
				return nil, false, err
			}
		}
	}
	if e.removed {
		m.counts[obs.CacheMisses]++
		return nil, false, nil
	}
	m.counts[obs.CacheHits]++
	return e.block, true, nil
}

// Unpin releases a pin taken by Put or Get. The last pin of a block that
// has left the cache meanwhile drops it.
func (m *Manager) Unpin(id BlockID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.blocks[id]
	if !ok {
		e = m.leaving[id]
	}
	if e != nil && e.pinned > 0 {
		m.unpinLocked(id, e)
	}
}

// unpinLocked takes one pin off e, which holds at least one; the last pin
// drops the blocks that left the cache while it was held.
func (m *Manager) unpinLocked(id BlockID, e *entry) {
	e.pinned--
	if e.pinned > 0 {
		return
	}
	for _, b := range e.doomed {
		b.Drop()
	}
	e.doomed = nil
	if e.removed {
		delete(m.leaving, id)
	}
}

// Contains reports whether the block is present (in memory or on disk).
func (m *Manager) Contains(id BlockID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.blocks[id]
	return ok
}

// Unpersist drops every block of the dataset — the explicit lifetime end
// of a cached RDD (§4.2): all blocks release immediately.
func (m *Manager) Unpersist(dataset int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, e := range m.blocks {
		if id.Dataset == dataset {
			m.removeLocked(id, e)
		}
	}
}

// Clear drops everything.
func (m *Manager) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, e := range m.blocks {
		m.removeLocked(id, e)
	}
}

// removeLocked takes the entry out of the map and drops its block — unless
// somebody is using it: a block mid-load is dropped by its loader, a pinned
// one by its last Unpin. (A reader of a dropped Deca block would scan
// recycled pages, or fault on an unmapped file.)
func (m *Manager) removeLocked(id BlockID, e *entry) {
	delete(m.blocks, id)
	e.removed = true
	switch {
	case e.loading:
	case e.pinned == 0:
		e.block.Drop()
	default:
		e.doomed = append(e.doomed, e.block)
		m.leaving[id] = e
	}
}

// reclaimLocked evicts LRU blocks until the bytes held fit the budget.
// Swappable blocks go to disk; others are dropped (recompute-on-miss).
func (m *Manager) reclaimLocked() error {
	if m.budget <= 0 {
		return nil
	}
	for m.residentLocked() > m.budget {
		victim := m.lruVictimLocked()
		if victim == nil {
			return nil // everything left is pinned or holds nothing; overshoot
		}
		e := m.blocks[*victim]
		m.counts[obs.CacheEvictions]++
		if e.block.Swappable() && m.swapDir != "" {
			bytes, written := e.block.MemBytes(), e.block.OnDisk()
			if err := e.block.SwapOut(m.swapDir); err != nil {
				return fmt.Errorf("cache: swapping out %s: %w", victim, err)
			}
			e.swapped = bytes
			if !written {
				m.counts[obs.CacheSwapOutBytes] += bytes
			}
		} else {
			m.removeLocked(*victim, e)
			m.counts[obs.CacheDrops]++
		}
	}
	return nil
}

func (m *Manager) lruVictimLocked() *BlockID {
	var victim *BlockID
	var oldest uint64
	for id, e := range m.blocks {
		// A block mid-load is pinned by its loader, so it is skipped
		// before it is read. Only a block that holds bytes is a victim:
		// evicting one that is already in its file — a mapped Deca block
		// above all — frees nothing, and the loop above would never end.
		if e.pinned > 0 || e.block.MemBytes() == 0 {
			continue
		}
		if victim == nil || e.use < oldest {
			oldest = e.use
			idCopy := id
			victim = &idCopy
		}
	}
	return victim
}
