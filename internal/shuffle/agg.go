package shuffle

import (
	"fmt"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// ObjectAgg is the Spark-semantics hash aggregation buffer: a hash table
// from key to a *boxed* value. Every combine allocates a fresh value
// object, exactly like the JVM's immutable boxed Tuple2 values — the
// source of the short-lived garbage Figure 8(a) shows.
type ObjectAgg[K comparable, V any] struct {
	combine   func(V, V) V
	table     map[K]*V
	entrySize func(K, V) int
	approx    int64 // running SizeBytes estimate, maintained by Put/Spill

	keySer   serial.Serializer[K]
	valSer   serial.Serializer[V]
	dir      string
	spills   []spillFile
	spilled  int64
	released bool
}

// ObjectAggConfig configures spilling and size estimation.
type ObjectAggConfig[K comparable, V any] struct {
	// KeySer/ValSer are required for spilling (Spark serializes spills).
	KeySer serial.Serializer[K]
	ValSer serial.Serializer[V]
	// SpillDir receives spill files (default: os temp dir via "").
	SpillDir string
	// EntrySize estimates the heap footprint of one entry; nil selects a
	// flat 48-byte default (map bucket + boxed value + key header).
	EntrySize func(K, V) int
}

// NewObjectAgg returns an empty buffer combining values with combine.
//
//deca:owns
func NewObjectAgg[K comparable, V any](combine func(V, V) V, cfg ObjectAggConfig[K, V]) *ObjectAgg[K, V] {
	es := cfg.EntrySize
	if es == nil {
		es = func(K, V) int { return 48 }
	}
	return &ObjectAgg[K, V]{
		combine:   combine,
		table:     make(map[K]*V),
		entrySize: es,
		keySer:    cfg.KeySer,
		valSer:    cfg.ValSer,
		dir:       cfg.SpillDir,
	}
}

// Put eagerly combines v into the entry for k, allocating a new boxed
// value (JVM semantics: the old Value object dies, a new one is born).
func (b *ObjectAgg[K, V]) Put(k K, v V) {
	if old, ok := b.table[k]; ok {
		nv := b.combine(*old, v)
		b.approx += int64(b.entrySize(k, nv)) - int64(b.entrySize(k, *old))
		b.table[k] = &nv
		return
	}
	b.approx += int64(b.entrySize(k, v))
	b.table[k] = &v
}

// Len returns the number of distinct keys in memory.
func (b *ObjectAgg[K, V]) Len() int { return len(b.table) }

// SizeBytes estimates the in-memory footprint. The estimate is maintained
// incrementally by Put and Spill — the exchange registers a payload size
// per map output, and an O(records) table walk there would dwarf the walk
// it prices.
func (b *ObjectAgg[K, V]) SizeBytes() int64 { return b.approx }

// SpilledBytes returns the cumulative spill volume.
func (b *ObjectAgg[K, V]) SpilledBytes() int64 { return b.spilled }

// Spill serializes the table to a run file and clears memory.
func (b *ObjectAgg[K, V]) Spill() error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectAgg has no serializers; cannot spill")
	}
	if len(b.table) == 0 {
		return nil
	}
	run, err := writeSpill(b.dir, func(w *spillWriter) error {
		for k, v := range b.table {
			rec := b.keySer.Marshal(w.stage(0), k)
			rec = b.valSer.Marshal(rec, *v)
			if err := w.emitScratch(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.spills = append(b.spills, run)
	b.spilled += run.size
	b.table = make(map[K]*V)
	b.approx = 0
	return nil
}

// Drain merges spilled runs back (deserializing and re-aggregating, as
// Spark's spill merge does) and yields every (key, value) pair. The buffer
// stays valid; Release frees it.
func (b *ObjectAgg[K, V]) Drain(yield func(K, V) bool) error {
	for _, run := range b.spills {
		data, err := run.read()
		if err != nil {
			return err
		}
		err = drainRecords(data, func(src []byte) int {
			k, kn := b.keySer.Unmarshal(src)
			v, vn := b.valSer.Unmarshal(src[kn:])
			b.Put(k, v)
			return kn + vn
		})
		if err != nil {
			return err
		}
		run.remove()
	}
	b.spills = nil
	for k, v := range b.table {
		if !yield(k, *v) {
			return nil
		}
	}
	return nil
}

// Release drops the table and deletes any remaining spill files.
func (b *ObjectAgg[K, V]) Release() {
	if b.released {
		return
	}
	b.released = true
	b.table = nil
	b.approx = 0
	for _, run := range b.spills {
		run.remove()
	}
	b.spills = nil
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
	combine  func(V, V) V
	keyCodec decompose.Codec[K]
	valCodec decompose.Codec[V]
	valSize  int

	group *memory.Group //deca:owns (released by Release; decode re-homes restored groups here)
	slots map[K]memory.Ptr
	dir   string

	spills   []spillFile
	spilled  int64
	released bool
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
		combine:  combine,
		keyCodec: keyCodec,
		valCodec: valCodec,
		valSize:  valCodec.FixedSize(),
		group:    mem.NewGroup(),
		slots:    make(map[K]memory.Ptr),
		dir:      spillDir,
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

// SpilledBytes returns the cumulative spill volume.
func (b *DecaAgg[K, V]) SpilledBytes() int64 { return b.spilled }

// Spill writes (key, value) records in raw page encoding — no
// serialization pass — and resets the pages for reuse.
func (b *DecaAgg[K, V]) Spill() error {
	if b.keyCodec == nil {
		return fmt.Errorf("shuffle: DecaAgg has no key codec; cannot spill")
	}
	if len(b.slots) == 0 {
		return nil
	}
	run, err := writeSpill(b.dir, func(w *spillWriter) error {
		for k, ptr := range b.slots {
			key := w.stage(b.keyCodec.Size(k))
			b.keyCodec.Encode(key, k)
			if err := w.emit(key); err != nil {
				return err
			}
			// Value bytes stream straight out of the page — already in
			// I/O form, no serialization pass (Appendix C).
			if err := w.emit(b.group.Bytes(ptr, b.valSize)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.spills = append(b.spills, run)
	b.spilled += run.size
	b.slots = make(map[K]memory.Ptr)
	b.group.Reset()
	return nil
}

// Drain merges any spilled runs (re-aggregating through the page path) and
// yields every pair.
func (b *DecaAgg[K, V]) Drain(yield func(K, V) bool) error {
	for _, run := range b.spills {
		data, err := run.read()
		if err != nil {
			return err
		}
		err = drainRecords(data, func(src []byte) int {
			k, kn := b.keyCodec.Decode(src)
			v, vn := b.valCodec.Decode(src[kn:])
			b.Put(k, v)
			return kn + vn
		})
		if err != nil {
			return err
		}
		run.remove()
	}
	b.spills = nil
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

// MergeFrom folds src into b without decoding or re-encoding records:
// b adopts src's page group wholesale (the pages are retained as a
// dependency, no bytes move — §4.3.3's depPages applied to the reduce
// merge), keys absent from b take over their source segment through a
// rebased pointer, and only key collisions decode — the source value is
// combined into b's existing segment in place. Spilled runs transfer by
// file handle; b's Drain folds them like its own.
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
	b.spills = append(b.spills, src.spills...)
	b.spilled += src.spilled
	src.spills = nil
	if len(src.slots) == 0 {
		return nil
	}
	base := b.group.AdoptPages(src.group)
	for k, ptr := range src.slots {
		b.absorb(k, src.group.Bytes(ptr, b.valSize), ptr.Rebase(base))
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
	if more, err := st.open(wireDecaAgg, &b.spills, &b.spilled); !more {
		return err
	}
	base := b.group.AdoptPages(st.group)
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

// Release frees the page group wholesale and deletes spill files: the
// container's lifetime ends, its space reclaims at once.
func (b *DecaAgg[K, V]) Release() {
	if b.released {
		return
	}
	b.released = true
	b.slots = nil
	b.group.Release()
	for _, run := range b.spills {
		run.remove()
	}
	b.spills = nil
}
