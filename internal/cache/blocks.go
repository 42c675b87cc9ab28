package cache

import (
	"fmt"
	"io"
	"iter"
	"os"
	"slices"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// swapFile is a block's copy on disk: written at the block's first
// eviction, valid from then until Drop (blocks never change once built).
type swapFile struct {
	path string
}

// OnDisk implements Block.
func (s *swapFile) OnDisk() bool { return s.path != "" }

// writeOnce creates the file under dir and has fill write the block into
// it, unless an earlier eviction already did.
func (s *swapFile) writeOnce(dir, pattern string, fill func(io.Writer) error) error {
	if s.OnDisk() {
		return nil
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	s.path = f.Name()
	return nil
}

func (s *swapFile) remove() {
	if s.path != "" {
		os.Remove(s.path)
		s.path = ""
	}
}

// ObjectBlock stores a partition as a plain Go slice of records — Spark's
// default MEMORY storage level. Pointer-rich record types keep the whole
// population visible to the garbage collector on every cycle, which is the
// paper's core problem statement. Swapping out serializes (Spark writes
// serialized bytes on eviction); swapping in re-materializes every object.
type ObjectBlock[T any] struct {
	swapFile
	values   []T
	count    int // len(values), kept while the values are on disk
	memBytes int64
	ser      serial.Serializer[T]
	estimate func(T) int
}

// NewObjectBlock wraps values. estimate gives per-record heap bytes (nil
// selects a flat 48-byte guess); ser enables swap (nil makes the block
// non-swappable, so eviction drops it for recompute).
func NewObjectBlock[T any](values []T, estimate func(T) int, ser serial.Serializer[T]) *ObjectBlock[T] {
	if estimate == nil {
		estimate = func(T) int { return 48 }
	}
	var total int64
	for _, v := range values {
		total += int64(estimate(v))
	}
	return &ObjectBlock[T]{values: values, count: len(values), memBytes: total, ser: ser, estimate: estimate}
}

// Each yields the resident records in order.
func (b *ObjectBlock[T]) Each(yield func(T) bool) {
	for _, v := range b.values {
		if !yield(v) {
			return
		}
	}
}

// Count implements Block.
func (b *ObjectBlock[T]) Count() int { return b.count }

// MemBytes implements Block.
func (b *ObjectBlock[T]) MemBytes() int64 {
	if b.values == nil {
		return 0
	}
	return b.memBytes
}

// InMemory implements Block.
func (b *ObjectBlock[T]) InMemory() bool { return b.values != nil }

// Swappable implements Block.
func (b *ObjectBlock[T]) Swappable() bool { return b.ser != nil }

// SwapOut implements Block: serialize all records to a temp file, the
// first time; after that the objects are just dropped.
func (b *ObjectBlock[T]) SwapOut(dir string) error {
	if b.ser == nil {
		return fmt.Errorf("cache: object block has no serializer")
	}
	if b.values == nil {
		return nil
	}
	err := b.writeOnce(dir, "deca-swap-obj-*.bin", func(w io.Writer) error {
		buf := serial.AppendUvarint(nil, uint64(len(b.values)))
		for _, v := range b.values {
			buf = b.ser.Marshal(buf, v)
		}
		_, err := w.Write(buf)
		return err
	})
	if err != nil {
		return err
	}
	b.values = nil
	return nil
}

// SwapIn implements Block: deserialize records back into fresh objects.
func (b *ObjectBlock[T]) SwapIn() error {
	if b.values != nil {
		return nil
	}
	if !b.OnDisk() {
		return fmt.Errorf("cache: object block has no swap file")
	}
	data, err := os.ReadFile(b.path)
	if err != nil {
		return err
	}
	n, k := serial.Uvarint(data)
	values := make([]T, 0, n)
	off := k
	for i := uint64(0); i < n; i++ {
		v, m := b.ser.Unmarshal(data[off:])
		values = append(values, v)
		off += m
	}
	b.values = values
	return nil
}

// Drop implements Block.
func (b *ObjectBlock[T]) Drop() {
	b.values = nil
	b.remove()
}

// SerializedBlock stores a partition as one serialized byte buffer — the
// SparkSer (Kryo, MEMORY_SER) level. Reading costs a full deserialization
// that allocates fresh objects every time; that cost is what Table 5
// isolates. Swap is a raw byte copy.
type SerializedBlock[T any] struct {
	swapFile
	data  []byte
	count int
	ser   serial.Serializer[T]
}

// BuildSerializedBlock marshals each record into the block's buffer as
// records yields it.
func BuildSerializedBlock[T any](records iter.Seq[T], ser serial.Serializer[T]) *SerializedBlock[T] {
	b := &SerializedBlock[T]{ser: ser}
	for v := range records {
		b.data = ser.Marshal(b.data, v)
		b.count++
	}
	return b
}

// Decode materializes all records — the per-access deserialization cost.
func (b *SerializedBlock[T]) Decode() []T {
	values := make([]T, 0, b.count)
	off := 0
	for i := 0; i < b.count; i++ {
		v, n := b.ser.Unmarshal(b.data[off:])
		values = append(values, v)
		off += n
	}
	return values
}

// Each decodes records one at a time without building a slice.
func (b *SerializedBlock[T]) Each(yield func(T) bool) {
	off := 0
	for i := 0; i < b.count; i++ {
		v, n := b.ser.Unmarshal(b.data[off:])
		if !yield(v) {
			return
		}
		off += n
	}
}

// Count implements Block.
func (b *SerializedBlock[T]) Count() int { return b.count }

// MemBytes implements Block.
func (b *SerializedBlock[T]) MemBytes() int64 { return int64(len(b.data)) }

// InMemory implements Block.
func (b *SerializedBlock[T]) InMemory() bool { return b.data != nil }

// Swappable implements Block.
func (b *SerializedBlock[T]) Swappable() bool { return true }

// SwapOut implements Block: the bytes go to disk as-is, once.
func (b *SerializedBlock[T]) SwapOut(dir string) error {
	if b.data == nil {
		return nil
	}
	err := b.writeOnce(dir, "deca-swap-ser-*.bin", func(w io.Writer) error {
		_, err := w.Write(b.data)
		return err
	})
	if err != nil {
		return err
	}
	b.data = nil
	return nil
}

// SwapIn implements Block.
func (b *SerializedBlock[T]) SwapIn() error {
	if b.data != nil {
		return nil
	}
	if !b.OnDisk() {
		return fmt.Errorf("cache: serialized block has no swap file")
	}
	data, err := os.ReadFile(b.path)
	if err != nil {
		return err
	}
	b.data = data
	return nil
}

// Drop implements Block.
func (b *SerializedBlock[T]) Drop() {
	b.data = nil
	b.remove()
}

// DecaBlock stores a partition as a decomposed page group (§4.3.2,
// Figure 6(a)). Records are accessed in place through the codec or raw
// page bytes — no deserialization, no per-record objects, and the GC sees
// only the pages.
//
// The block has two states. It is built into manager pages, which count
// against the cache budget. Its one eviction writes the raw pages to the
// swap file (Appendix C), releases them and maps the file: from then on the
// group is that read-only mapping — same page boundaries, so every pointer
// still resolves, and every page 8-byte aligned, so the scan kernels read
// it exactly as they read the heap pages — and the block holds no manager
// memory. There is no way back and no need for one: the mapping is
// readable, its resident part is page cache the kernel sizes by itself, and
// Drop unmaps it before it unlinks the file.
type DecaBlock[T any] struct {
	swapFile
	mem   *memory.Manager
	group *memory.Group //deca:owns (manager pages, then the swap file's mapping; released by Drop)
	codec decompose.Codec[T]
	count int
}

// BuildDecaBlock decomposes each record into a fresh page group as records
// yields it: the block is born in its pages, and no copy of the partition
// exists beside them. If records panics — the engine's lazy plumbing
// carries a failed upstream that way — the pages are released before the
// panic continues.
//
//deca:owns
func BuildDecaBlock[T any](mem *memory.Manager, codec decompose.Codec[T], records iter.Seq[T]) *DecaBlock[T] {
	b := &DecaBlock[T]{mem: mem, group: mem.NewGroup(), codec: codec}
	built := false
	defer func() {
		if !built {
			b.Drop()
		}
	}()
	for v := range records {
		decompose.Write(b.group, codec, v)
		b.count++
	}
	built = true
	return b
}

// NewDecaBlock is BuildDecaBlock over a slice.
func NewDecaBlock[T any](mem *memory.Manager, codec decompose.Codec[T], values []T) *DecaBlock[T] {
	return BuildDecaBlock(mem, codec, slices.Values(values))
}

// NewDecaBlockFromGroup adopts an already-filled page group of count
// records. It is Figure 7(b)'s hand-off: engine.GroupByKey makes each block
// of a Deca-persisted output — PageRank's and CC's adjacency cache — from
// the group its merged DecaGroup writes its lists into
// (shuffle.DecaGroup.WriteLists).
func NewDecaBlockFromGroup[T any](mem *memory.Manager, codec decompose.Codec[T], g *memory.Group, count int) *DecaBlock[T] {
	return &DecaBlock[T]{mem: mem, group: g, codec: codec, count: count}
}

// Each scans records in place.
func (b *DecaBlock[T]) Each(yield func(T) bool) {
	decompose.Scan(b.group, b.codec, yield)
}

// Group exposes the page group for transformed code that reads raw bytes
// (the Figure 12 access path).
func (b *DecaBlock[T]) Group() *memory.Group { return b.group }

// Count implements Block.
func (b *DecaBlock[T]) Count() int { return b.count }

// MemBytes implements Block: the manager pages held, none once mapped.
func (b *DecaBlock[T]) MemBytes() int64 {
	if b.group == nil {
		return 0
	}
	return b.group.Footprint()
}

// InMemory implements Block: true until Drop, mapped or not.
func (b *DecaBlock[T]) InMemory() bool { return b.group != nil }

// Swappable implements Block.
func (b *DecaBlock[T]) Swappable() bool { return true }

// SwapOut implements Block: raw page bytes, no serialization, written
// once; the heap pages are released and the block becomes the file's
// mapping. A file that cannot be written, mapped or validated is an error
// that leaves the block as it was, on its pages — nothing falls back to
// reading the file.
func (b *DecaBlock[T]) SwapOut(dir string) error {
	if b.group == nil || b.OnDisk() {
		return nil
	}
	err := b.writeOnce(dir, "deca-swap-page-*.bin", func(w io.Writer) error {
		_, err := b.group.WriteTo(w)
		return err
	})
	if err != nil {
		return err
	}
	mapped, err := memory.MapGroup(b.mem, b.path)
	if err != nil {
		b.remove()
		return err
	}
	b.group.Release()
	b.group = mapped
	return nil
}

// SwapIn implements Block. A swapped-out Deca block is already readable.
func (b *DecaBlock[T]) SwapIn() error {
	if b.group == nil {
		return fmt.Errorf("cache: deca block was dropped")
	}
	return nil
}

// Drop implements Block: the whole page group releases at once — back to
// the memory reserve, or unmapped and then unlinked.
func (b *DecaBlock[T]) Drop() {
	if b.group != nil {
		b.group.Release()
		b.group = nil
	}
	b.remove()
}
