package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/transport"
)

// ObjectGroup is the Spark-semantics groupByKey buffer: a hash table from
// key to a growing list of boxed values. The lists only grow, so every
// inserted reference lives until the buffer is released — the long-living
// population that saturates the old generation (§4.2 case 3).
type ObjectGroup[K comparable, V any] struct {
	boxedStore[K, V]
	table map[K][]*V
	count int
}

// NewObjectGroup returns an empty grouping buffer.
//
//deca:owns
func NewObjectGroup[K comparable, V any](cfg ObjectConfig[K, V]) *ObjectGroup[K, V] {
	return &ObjectGroup[K, V]{boxedStore: newBoxedStore(cfg), table: make(map[K][]*V)}
}

// Put appends v to k's value list (boxed, like the JVM's ArrayBuffer of
// references).
func (b *ObjectGroup[K, V]) Put(k K, v V) {
	b.table[k] = append(b.table[k], &v)
	b.count++
	b.charge(k, v)
}

// Len returns the number of distinct keys in memory.
func (b *ObjectGroup[K, V]) Len() int { return len(b.table) }

// Values returns the total number of buffered values in memory.
func (b *ObjectGroup[K, V]) Values() int { return b.count }

// each enumerates every (key, value) pair flat, in list order per key, for
// the store's spill and frame writers; replay and decode regroup them with
// within-key order preserved.
func (b *ObjectGroup[K, V]) each(emit func(K, V) error) error {
	for k, vs := range b.table {
		for _, v := range vs {
			if err := emit(k, *v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Spill serializes all (key, value) pairs flat and clears memory; Drain
// re-groups them.
func (b *ObjectGroup[K, V]) Spill() error {
	if err := b.spill(wireObjectGroup, b.count, b.each); err != nil {
		return err
	}
	b.table = make(map[K][]*V)
	b.count = 0
	return nil
}

// EncodeWire serializes every (key, value) pair flat.
func (b *ObjectGroup[K, V]) EncodeWire(w io.Writer) error {
	return b.encodeRecords(w, wireObjectGroup, b.count, b.each)
}

// Drain merges spills back and yields every key with its complete value
// list.
func (b *ObjectGroup[K, V]) Drain(yield func(K, []V) bool) error {
	if err := b.replay(b.Put); err != nil {
		return err
	}
	for k, vs := range b.table {
		out := make([]V, len(vs))
		for i, v := range vs {
			out[i] = *v
		}
		if !yield(k, out) {
			return nil
		}
	}
	return nil
}

// Release drops everything.
func (b *ObjectGroup[K, V]) Release() {
	b.table = nil
	b.boxedStore.Release()
}

// DecaGroup is the page-backed groupByKey buffer of Figure 7(b): values
// are decomposed into the buffer's page group as they arrive (the codec
// may be RuntimeFixed — values are appended once and never mutated), and
// each key holds a pointer array into the pages instead of a list of
// object references. The buffer is the *partially decomposable* case: the
// per-key value-list type is Variable while the buffer grows, so the list
// structure itself stays on the heap, but the value payloads live in
// pages.
type DecaGroup[K comparable, V any] struct {
	pageStore
	keyCodec decompose.Codec[K]
	valCodec decompose.Codec[V]
	slots    map[K][]memory.Ptr
	count    int
}

// NewDecaGroup returns a page-backed grouping buffer. keyCodec is needed
// only for spilling.
//
//deca:owns
func NewDecaGroup[K comparable, V any](
	mem *memory.Manager,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) *DecaGroup[K, V] {
	return &DecaGroup[K, V]{
		pageStore: newPageStore(mem, spillDir),
		keyCodec:  keyCodec,
		valCodec:  valCodec,
		slots:     make(map[K][]memory.Ptr),
	}
}

// Put appends v's encoded bytes to the pages and its pointer to k's
// pointer array.
func (b *DecaGroup[K, V]) Put(k K, v V) {
	b.slots[k] = append(b.slots[k], decompose.Write(b.group, b.valCodec, v))
	b.count++
}

// Len returns the number of distinct keys in memory.
func (b *DecaGroup[K, V]) Len() int { return len(b.slots) }

// Values returns the total number of buffered values in memory.
func (b *DecaGroup[K, V]) Values() int { return b.count }

// SizeBytes returns the page footprint plus pointer-array overhead.
func (b *DecaGroup[K, V]) SizeBytes() int64 {
	return b.group.Footprint() + int64(b.count)*8 + int64(len(b.slots))*24
}

// Spill writes raw (key, value) records and resets pages.
func (b *DecaGroup[K, V]) Spill() error {
	if b.keyCodec == nil {
		return fmt.Errorf("shuffle: DecaGroup has no key codec; cannot spill")
	}
	if len(b.slots) == 0 {
		return nil
	}
	err := b.spillPages(func(w *spillWriter) error {
		for k, ptrs := range b.slots {
			for _, ptr := range ptrs {
				if err := emitKey(w, b.keyCodec, k); err != nil {
					return err
				}
				// Re-read the value's exact size from its segment; the
				// bytes stream straight out of the page.
				page := b.group.Page(int(ptr.Page))
				_, vn := b.valCodec.Decode(page[ptr.Off:])
				if err := w.emit(page[ptr.Off : int(ptr.Off)+vn]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.slots = make(map[K][]memory.Ptr)
	b.count = 0
	return nil
}

// Drain merges spills and yields each key with its decoded value list.
func (b *DecaGroup[K, V]) Drain(yield func(K, []V) bool) error {
	return b.DrainPages(func(k K, ptrs []memory.Ptr, g *memory.Group) bool {
		out := make([]V, len(ptrs))
		for i, ptr := range ptrs {
			out[i] = decompose.ReadAt(g, b.valCodec, ptr)
		}
		return yield(k, out)
	})
}

// DrainPages merges spills and yields each key's pointer array along with
// the backing group, letting a downstream cache copy raw value bytes
// without decoding — the partially-decomposable hand-off of Figure 7(b).
func (b *DecaGroup[K, V]) DrainPages(yield func(k K, ptrs []memory.Ptr, g *memory.Group) bool) error {
	pair := decompose.PairCodec[K, V]{KeyCodec: b.keyCodec, ValueCodec: b.valCodec}
	if err := replayRuns(&b.runSet, pair.Decode, b.Put); err != nil {
		return err
	}
	for k, ptrs := range b.slots {
		if !yield(k, ptrs, b.group) {
			return nil
		}
	}
	return nil
}

// EncodeSegments builds the DecaGroup frame: per key its bytes and its
// pointer array, which preserves within-key value order.
//
//deca:owns
func (b *DecaGroup[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	if b.keyCodec == nil {
		return nil, fmt.Errorf("shuffle: DecaGroup has no key codec; cannot encode")
	}
	return b.encodeSegments(wireDecaGroup, len(b.slots), func(fs *transport.FrameSegments) {
		for k, ptrs := range b.slots {
			stageKey(fs, b.keyCodec, k)
			stageUvarint(fs, uint64(len(ptrs)))
			stagePtrs(fs, ptrs)
		}
	})
}

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaGroup[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// MergeFrom folds src into b zero-copy: b adopts src's page group and
// spill runs (pageStore.adopt) and appends each key's pointer array
// wholesale — rebased to b's page address space, never decoded. Same
// ownership contract as DecaAgg.MergeFrom: src is consumed and must only
// be Released afterwards.
func (b *DecaGroup[K, V]) MergeFrom(src *DecaGroup[K, V]) error {
	if src == b {
		return fmt.Errorf("shuffle: DecaGroup cannot merge from itself")
	}
	base, ok := b.adopt(&src.pageStore, len(src.slots))
	if !ok {
		return nil
	}
	for k, ptrs := range src.slots {
		if base != 0 {
			for i := range ptrs {
				ptrs[i] = ptrs[i].Rebase(base)
			}
		}
		b.absorb(k, ptrs)
	}
	return nil
}

// absorb takes one key's pointer array — already rebased into b's
// address space — into b, the per-key step MergeFrom and Fold share: a
// new key keeps the array itself, a collision appends it to b's.
func (b *DecaGroup[K, V]) absorb(k K, ptrs []memory.Ptr) {
	b.count += len(ptrs)
	if existing, ok := b.slots[k]; ok {
		ptrs = append(existing, ptrs...)
	}
	b.slots[k] = ptrs
}

// Fold merges a staged frame into b; see DecaAgg.Fold. Each key's
// pointer array is a capped sub-slice of the frame's one pointer arena,
// validated and rebased in place: a new key keeps the sub-slice itself, a
// collision appends it to b's array (the cap makes a later append to a
// kept sub-slice copy out instead of overwriting its neighbour).
//
//deca:transfers
func (b *DecaGroup[K, V]) Fold(st *Staged) error {
	defer st.Release()
	base, ok, err := b.adoptStaged(st, wireDecaGroup)
	if !ok {
		return err
	}
	if len(b.slots) == 0 {
		b.slots = make(map[K][]memory.Ptr, st.n)
	}
	ptrs := st.ptrs
	for table := st.table; len(table) > 0; {
		var kb []byte
		kb, table = nextKey(table)
		k, _ := b.keyCodec.Decode(kb)
		m, w := binary.Uvarint(table)
		table = table[w:]
		sub := ptrs[:m:m]
		ptrs = ptrs[m:]
		for j, ptr := range sub {
			if _, err := st.group.CheckedBytes(ptr, 1); err != nil {
				return fmt.Errorf("shuffle: DecaGroup key %v: %w", k, err)
			}
			sub[j] = ptr.Rebase(base)
		}
		b.absorb(k, sub)
	}
	return nil
}

// Release frees the pages and spill files (pageStore.Release) and drops
// the pointer arrays.
func (b *DecaGroup[K, V]) Release() {
	b.slots = nil
	b.pageStore.Release()
}
