package shuffle

import (
	"fmt"
	"io"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/transport"
)

// ObjectAgg is the Spark-semantics hash aggregation buffer: a hash table
// from key to a *boxed* value. Every combine allocates a fresh value
// object, exactly like the JVM's immutable boxed Tuple2 values — the
// source of the short-lived garbage Figure 8(a) shows.
type ObjectAgg[K comparable, V any] struct {
	boxedStore[K, V]
	combine func(V, V) V
	table   map[K]*V
}

// NewObjectAgg returns an empty buffer combining values with combine.
//
//deca:owns
func NewObjectAgg[K comparable, V any](combine func(V, V) V, cfg ObjectConfig[K, V]) *ObjectAgg[K, V] {
	return &ObjectAgg[K, V]{boxedStore: newBoxedStore(cfg), combine: combine, table: make(map[K]*V)}
}

// Put eagerly combines v into the entry for k, allocating a new boxed
// value (JVM semantics: the old Value object dies, a new one is born).
func (b *ObjectAgg[K, V]) Put(k K, v V) {
	if old, ok := b.table[k]; ok {
		nv := b.combine(*old, v)
		b.approx += int64(b.cfg.EntrySize(k, nv)) - int64(b.cfg.EntrySize(k, *old))
		b.table[k] = &nv
		return
	}
	b.charge(k, v)
	b.table[k] = &v
}

// Len returns the number of distinct keys in memory.
func (b *ObjectAgg[K, V]) Len() int { return len(b.table) }

// each enumerates the table for the store's spill and frame writers.
func (b *ObjectAgg[K, V]) each(emit func(K, V) error) error {
	for k, v := range b.table {
		if err := emit(k, *v); err != nil {
			return err
		}
	}
	return nil
}

// Spill serializes the table to a run file and clears memory.
func (b *ObjectAgg[K, V]) Spill() error {
	if err := b.spill(wireObjectAgg, len(b.table), b.each); err != nil {
		return err
	}
	b.table = make(map[K]*V)
	return nil
}

// EncodeWire serializes the table record by record.
func (b *ObjectAgg[K, V]) EncodeWire(w io.Writer) error {
	return b.encodeRecords(w, wireObjectAgg, len(b.table), b.each)
}

// Drain merges spilled runs back (deserializing and re-aggregating, as
// Spark's spill merge does) and yields every (key, value) pair. The buffer
// stays valid; Release frees it.
func (b *ObjectAgg[K, V]) Drain(yield func(K, V) bool) error {
	if err := b.replay(b.Put); err != nil {
		return err
	}
	for k, v := range b.table {
		if !yield(k, *v) {
			return nil
		}
	}
	return nil
}

// Release drops the table and deletes any remaining spill files.
func (b *ObjectAgg[K, V]) Release() {
	b.table = nil
	b.boxedStore.Release()
}

// DecaAgg is the page-decomposed aggregation buffer (§4.3.2): keys stay in
// the hash table (the paper keeps Key objects intact), values live as
// fixed-size byte segments in a page group, and every combine decodes,
// combines and re-encodes *in place*, reusing the old value's segment —
// no allocation, no garbage, no GC pressure from combining.
//
// The value codec must be fixed-size (a StaticFixed classification); the
// constructor enforces it because in-place reuse of a variable-size value
// would corrupt neighbouring segments — the safety property §3 exists to
// guarantee.
type DecaAgg[K comparable, V any] struct {
	pageStore
	combine  func(V, V) V
	keyCodec decompose.Codec[K]
	valCodec decompose.Codec[V]
	valSize  int
	slots    map[K]memory.Ptr
}

// NewDecaAgg returns a page-backed aggregation buffer. valCodec must
// report a non-negative FixedSize. keyCodec is needed only for spilling;
// pass nil to disable spill.
//
//deca:owns
func NewDecaAgg[K comparable, V any](
	mem *memory.Manager,
	combine func(V, V) V,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaAgg[K, V], error) {
	if valCodec.FixedSize() < 0 {
		return nil, fmt.Errorf("shuffle: DecaAgg requires a StaticFixed value codec (got variable size)")
	}
	return &DecaAgg[K, V]{
		pageStore: newPageStore(mem, spillDir),
		combine:   combine,
		keyCodec:  keyCodec,
		valCodec:  valCodec,
		valSize:   valCodec.FixedSize(),
		slots:     make(map[K]memory.Ptr),
	}, nil
}

// Put eagerly combines v into k's segment, reusing the segment in place.
func (b *DecaAgg[K, V]) Put(k K, v V) {
	if ptr, ok := b.slots[k]; ok {
		seg := b.group.Bytes(ptr, b.valSize)
		old, _ := b.valCodec.Decode(seg)
		b.valCodec.Encode(seg, b.combine(old, v))
		return
	}
	b.slots[k] = decompose.Write(b.group, b.valCodec, v)
}

// Len returns the number of distinct keys in memory.
func (b *DecaAgg[K, V]) Len() int { return len(b.slots) }

// SizeBytes returns the page footprint plus hash-table slot overhead.
func (b *DecaAgg[K, V]) SizeBytes() int64 {
	return b.group.Footprint() + int64(len(b.slots))*24
}

// Spill writes (key, value) records in raw page encoding — no
// serialization pass — and resets the pages for reuse.
func (b *DecaAgg[K, V]) Spill() error {
	if b.keyCodec == nil {
		return fmt.Errorf("shuffle: DecaAgg has no key codec; cannot spill")
	}
	if len(b.slots) == 0 {
		return nil
	}
	err := b.spillPages(func(w *spillWriter) error {
		for k, ptr := range b.slots {
			if err := emitKey(w, b.keyCodec, k); err != nil {
				return err
			}
			if err := w.emit(b.group.Bytes(ptr, b.valSize)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.slots = make(map[K]memory.Ptr)
	return nil
}

// Drain merges any spilled runs (re-aggregating through the page path) and
// yields every pair.
func (b *DecaAgg[K, V]) Drain(yield func(K, V) bool) error {
	pair := decompose.PairCodec[K, V]{KeyCodec: b.keyCodec, ValueCodec: b.valCodec}
	if err := replayRuns(&b.runSet, pair.Decode, b.Put); err != nil {
		return err
	}
	for k, ptr := range b.slots {
		v, _ := b.valCodec.Decode(b.group.Bytes(ptr, b.valSize))
		if !yield(k, v) {
			return nil
		}
	}
	return nil
}

// ValueBytes exposes the raw segment of k's current value — the zero-copy
// output path: Deca "saves the cost of data (de-)serialization by directly
// outputting the raw bytes" (§6.1).
func (b *DecaAgg[K, V]) ValueBytes(k K) ([]byte, bool) {
	ptr, ok := b.slots[k]
	if !ok {
		return nil, false
	}
	return b.group.Bytes(ptr, b.valSize), true
}

// EncodeSegments builds the DecaAgg frame: per key its bytes and the
// pointer to its value segment.
//
//deca:owns
func (b *DecaAgg[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	if b.keyCodec == nil {
		return nil, fmt.Errorf("shuffle: DecaAgg has no key codec; cannot encode")
	}
	return b.encodeSegments(wireDecaAgg, len(b.slots), func(fs *transport.FrameSegments) {
		for k, ptr := range b.slots {
			putPtr(stageKey(fs, b.keyCodec, k, 8), ptr)
		}
	})
}

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaAgg[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// MergeFrom folds src into b without decoding or re-encoding records:
// b adopts src's page group and spill runs (pageStore.adopt), keys absent
// from b take over their source segment through a rebased pointer, and
// only key collisions decode — the source value is combined into b's
// existing segment in place. b's Drain folds the transferred runs like its
// own.
//
// Ownership contract: MergeFrom consumes src. The caller must Release src
// afterwards and must not read it in between — collision segments inside
// the adopted pages may be mutated by b, and transferred spill files now
// belong to b. Both buffers must share the codecs they were built with
// (the exchange constructs them from one PairOps).
func (b *DecaAgg[K, V]) MergeFrom(src *DecaAgg[K, V]) error {
	if src == b {
		return fmt.Errorf("shuffle: DecaAgg cannot merge from itself")
	}
	if base, ok := b.adopt(&src.pageStore, len(src.slots)); ok {
		for k, ptr := range src.slots {
			b.absorb(k, src.group.Bytes(ptr, b.valSize), ptr.Rebase(base))
		}
	}
	return nil
}

// absorb takes one value segment of a just-adopted page group into b —
// the per-key step MergeFrom and Fold share: a new key takes the segment
// over through ptr (already rebased into b's address space), a collision
// decodes the source value from seg and combines it into b's existing
// segment in place.
func (b *DecaAgg[K, V]) absorb(k K, seg []byte, ptr memory.Ptr) {
	dptr, ok := b.slots[k]
	if !ok {
		b.slots[k] = ptr
		return
	}
	sv, _ := b.valCodec.Decode(seg)
	dst := b.group.Bytes(dptr, b.valSize)
	old, _ := b.valCodec.Decode(dst)
	b.valCodec.Encode(dst, b.combine(old, sv))
}

// Fold merges a staged frame into b — MergeFrom without a source
// container: b adopts the restored pages, then one walk of the frame's
// table in wire order validates each pointer against the restored group
// and absorbs its segment. An empty
// b sizes its table from the frame's key count first. Fold consumes st on
// every path; a pointer outside the restored group is an error that
// leaves b partially merged, for the caller to release.
//
//deca:transfers
func (b *DecaAgg[K, V]) Fold(st *Staged) error {
	defer st.Release()
	base, ok, err := b.adoptStaged(st, wireDecaAgg)
	if !ok {
		return err
	}
	if len(b.slots) == 0 {
		b.slots = make(map[K]memory.Ptr, st.n)
	}
	for table := st.table; len(table) > 0; table = table[8:] {
		var kb []byte
		kb, table = nextKey(table)
		k, _ := b.keyCodec.Decode(kb)
		ptr := getPtr(table)
		seg, err := st.group.CheckedBytes(ptr, b.valSize)
		if err != nil {
			return fmt.Errorf("shuffle: DecaAgg key %v: %w", k, err)
		}
		b.absorb(k, seg, ptr.Rebase(base))
	}
	return nil
}

// Release frees the pages and spill files (pageStore.Release) and drops
// the table.
func (b *DecaAgg[K, V]) Release() {
	b.slots = nil
	b.pageStore.Release()
}
