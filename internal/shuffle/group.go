package shuffle

import (
	"encoding/binary"
	"fmt"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// ObjectGroup is the Spark-semantics groupByKey buffer: a hash table from
// key to a growing list of boxed values. The lists only grow, so every
// inserted reference lives until the buffer is released — the long-living
// population that saturates the old generation (§4.2 case 3).
type ObjectGroup[K comparable, V any] struct {
	table     map[K][]*V
	entrySize func(K, V) int
	approx    int64 // running SizeBytes estimate, maintained by Put/Spill

	keySer   serial.Serializer[K]
	valSer   serial.Serializer[V]
	dir      string
	spills   []spillFile
	spilled  int64
	count    int
	released bool
}

// ObjectGroupConfig mirrors ObjectAggConfig for the grouping buffer.
type ObjectGroupConfig[K comparable, V any] struct {
	KeySer    serial.Serializer[K]
	ValSer    serial.Serializer[V]
	SpillDir  string
	EntrySize func(K, V) int
}

// NewObjectGroup returns an empty grouping buffer.
//
//deca:owns
func NewObjectGroup[K comparable, V any](cfg ObjectGroupConfig[K, V]) *ObjectGroup[K, V] {
	es := cfg.EntrySize
	if es == nil {
		es = func(K, V) int { return 48 }
	}
	return &ObjectGroup[K, V]{
		table:     make(map[K][]*V),
		entrySize: es,
		keySer:    cfg.KeySer,
		valSer:    cfg.ValSer,
		dir:       cfg.SpillDir,
	}
}

// Put appends v to k's value list (boxed, like the JVM's ArrayBuffer of
// references).
func (b *ObjectGroup[K, V]) Put(k K, v V) {
	b.table[k] = append(b.table[k], &v)
	b.count++
	b.approx += int64(b.entrySize(k, v))
}

// Len returns the number of distinct keys in memory.
func (b *ObjectGroup[K, V]) Len() int { return len(b.table) }

// Values returns the total number of buffered values in memory.
func (b *ObjectGroup[K, V]) Values() int { return b.count }

// SizeBytes estimates the footprint, maintained incrementally by Put and
// Spill instead of walking every buffered value on each call.
func (b *ObjectGroup[K, V]) SizeBytes() int64 { return b.approx }

// SpilledBytes returns the cumulative spill volume.
func (b *ObjectGroup[K, V]) SpilledBytes() int64 { return b.spilled }

// Spill serializes all (key, value) pairs flat and clears memory; Drain
// re-groups them.
func (b *ObjectGroup[K, V]) Spill() error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectGroup has no serializers; cannot spill")
	}
	if len(b.table) == 0 {
		return nil
	}
	run, err := writeSpill(b.dir, func(w *spillWriter) error {
		for k, vs := range b.table {
			for _, v := range vs {
				rec := b.keySer.Marshal(w.stage(0), k)
				rec = b.valSer.Marshal(rec, *v)
				if err := w.emitScratch(rec); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.spills = append(b.spills, run)
	b.spilled += run.size
	b.table = make(map[K][]*V)
	b.count = 0
	b.approx = 0
	return nil
}

// Drain merges spills back and yields every key with its complete value
// list.
func (b *ObjectGroup[K, V]) Drain(yield func(K, []V) bool) error {
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

// DecaGroup is the page-backed groupByKey buffer of Figure 7(b): values
// are decomposed into the buffer's page group as they arrive (the codec
// may be RuntimeFixed — values are appended once and never mutated), and
// each key holds a pointer array into the pages instead of a list of
// object references. The buffer is the *partially decomposable* case: the
// per-key value-list type is Variable while the buffer grows, so the list
// structure itself stays on the heap, but the value payloads live in
// pages.
type DecaGroup[K comparable, V any] struct {
	keyCodec decompose.Codec[K]
	valCodec decompose.Codec[V]

	group *memory.Group //deca:owns (released by Release; decode re-homes restored groups here)
	slots map[K][]memory.Ptr
	dir   string

	spills   []spillFile
	spilled  int64
	count    int
	released bool
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
		keyCodec: keyCodec,
		valCodec: valCodec,
		group:    mem.NewGroup(),
		slots:    make(map[K][]memory.Ptr),
		dir:      spillDir,
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

// SpilledBytes returns the cumulative spill volume.
func (b *DecaGroup[K, V]) SpilledBytes() int64 { return b.spilled }

// Spill writes raw (key, value) records and resets pages.
func (b *DecaGroup[K, V]) Spill() error {
	if b.keyCodec == nil {
		return fmt.Errorf("shuffle: DecaGroup has no key codec; cannot spill")
	}
	if len(b.slots) == 0 {
		return nil
	}
	run, err := writeSpill(b.dir, func(w *spillWriter) error {
		for k, ptrs := range b.slots {
			for _, ptr := range ptrs {
				key := w.stage(b.keyCodec.Size(k))
				b.keyCodec.Encode(key, k)
				if err := w.emit(key); err != nil {
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
	b.spills = append(b.spills, run)
	b.spilled += run.size
	b.slots = make(map[K][]memory.Ptr)
	b.count = 0
	b.group.Reset()
	return nil
}

// Drain merges spills and yields each key with its decoded value list.
func (b *DecaGroup[K, V]) Drain(yield func(K, []V) bool) error {
	if err := b.mergeSpills(); err != nil {
		return err
	}
	for k, ptrs := range b.slots {
		out := make([]V, len(ptrs))
		for i, ptr := range ptrs {
			out[i] = decompose.ReadAt(b.group, b.valCodec, ptr)
		}
		if !yield(k, out) {
			return nil
		}
	}
	return nil
}

// DrainPages yields each key's pointer array along with the backing group,
// letting a downstream cache copy raw value bytes without decoding — the
// partially-decomposable hand-off of Figure 7(b).
func (b *DecaGroup[K, V]) DrainPages(yield func(k K, ptrs []memory.Ptr, g *memory.Group) bool) error {
	if err := b.mergeSpills(); err != nil {
		return err
	}
	for k, ptrs := range b.slots {
		if !yield(k, ptrs, b.group) {
			return nil
		}
	}
	return nil
}

func (b *DecaGroup[K, V]) mergeSpills() error {
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
	return nil
}

// MergeFrom folds src into b zero-copy: b adopts src's page group by
// reference and appends each key's pointer array wholesale — rebased to
// b's page address space, never decoded. Spilled runs transfer by file
// handle. Same ownership contract as DecaAgg.MergeFrom: src is consumed
// and must only be Released afterwards.
func (b *DecaGroup[K, V]) MergeFrom(src *DecaGroup[K, V]) error {
	if src == b {
		return fmt.Errorf("shuffle: DecaGroup cannot merge from itself")
	}
	b.spills = append(b.spills, src.spills...)
	b.spilled += src.spilled
	src.spills = nil
	if len(src.slots) == 0 {
		return nil
	}
	base := b.group.AdoptPages(src.group)
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
	if more, err := st.open(wireDecaGroup, &b.spills, &b.spilled); !more {
		return err
	}
	base := b.group.AdoptPages(st.group)
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

// Release frees the page group wholesale and deletes spill files.
func (b *DecaGroup[K, V]) Release() {
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
