package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"deca/internal/decompose"
	"deca/internal/memory"
)

// Wire codecs: every shuffle buffer has a self-describing byte frame so a
// network transport can move map output between executors. The asymmetry
// the paper measures in §6.5 is built in:
//
//   - Deca containers encode as header + key/pointer table + a page
//     snapshot (memory.Group.Snapshot): the record bytes are already in
//     wire format, so encoding is a handful of bulk copies and decoding
//     restores pages into the destination executor's manager with the
//     pointers valid as-is (page boundaries survive the frame, so the
//     rebase is the identity).
//   - Object containers round-trip through internal/serial, record by
//     record: decode materializes fresh objects, re-creating the
//     allocation and GC cost Kryo/SparkSer pays on every remote fetch.
//   - Spill runs cross the wire as raw file bytes on both paths and land
//     in the destination's spill directory.
//
// Each frame opens with a kind byte; decoders verify it, so a frame
// handed to the wrong decoder fails loudly instead of misparsing.

// WireReader is the stream a container frame decodes from: byte-level
// reads for headers plus bulk reads for pages and spill runs.
// *bytes.Reader and *bufio.Reader both satisfy it.
type WireReader interface {
	io.Reader
	io.ByteReader
}

// Frame kind bytes.
const (
	wireDecaAgg byte = iota + 1
	wireObjectAgg
	wireDecaGroup
	wireObjectGroup
	wireDecaSort
	wireObjectSort
)

// maxWireCount bounds table counts and record lengths read off the wire,
// rejecting corrupt headers before they turn into huge allocations.
const maxWireCount = 1 << 31

//
// Encode/decode plumbing.
//

// wireEncoder wraps a writer with varint and length-prefix helpers plus a
// reusable staging buffer for key/record bytes. All output is buffered
// (small table entries coalesce into few large writes; page-sized bulk
// writes pass through) — the caller must flush.
type wireEncoder struct {
	w       *bufio.Writer
	scratch []byte
	hdr     [binary.MaxVarintLen64]byte
}

func newWireEncoder(w io.Writer) *wireEncoder {
	return &wireEncoder{w: bufio.NewWriter(w)}
}

func (e *wireEncoder) flush() error { return e.w.Flush() }

func (e *wireEncoder) raw(b []byte) error {
	_, err := e.w.Write(b)
	return err
}

func (e *wireEncoder) byte(b byte) error {
	e.hdr[0] = b
	return e.raw(e.hdr[:1])
}

func (e *wireEncoder) uvarint(v uint64) error {
	return e.raw(e.hdr[:binary.PutUvarint(e.hdr[:], v)])
}

// stage returns the encoder's scratch resized to n bytes.
func (e *wireEncoder) stage(n int) []byte {
	e.scratch = slices.Grow(e.scratch[:0], n)[:n]
	return e.scratch
}

// lenBytes writes b with a uvarint length prefix.
func (e *wireEncoder) lenBytes(b []byte) error {
	if err := e.uvarint(uint64(len(b))); err != nil {
		return err
	}
	return e.raw(b)
}

// ptr writes a pointer as two fixed little-endian uint32s: bulk-copyable
// on both ends, which keeps the Deca frames' per-record cost at a memcpy.
func (e *wireEncoder) ptr(p memory.Ptr) error {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(p.Page))
	binary.LittleEndian.PutUint32(b[4:], uint32(p.Off))
	return e.raw(b[:])
}

// ptrChunk is how many pointers a bulk write (ptrs, stagePtrs) or bulk
// read (tableReader.readPtrs) moves per call.
const ptrChunk = 1024

// ptrs writes a pointer array in chunked bulk writes.
func (e *wireEncoder) ptrs(ps []memory.Ptr) error {
	buf := e.stage(8 * min(len(ps), ptrChunk))
	for len(ps) > 0 {
		n := min(len(ps), ptrChunk)
		for i, p := range ps[:n] {
			binary.LittleEndian.PutUint32(buf[8*i:], uint32(p.Page))
			binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(p.Off))
		}
		if err := e.raw(buf[:8*n]); err != nil {
			return err
		}
		ps = ps[n:]
	}
	return nil
}

func readKind(r WireReader, want byte, name string) error {
	got, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("shuffle: %s frame kind: %w", name, err)
	}
	if got != want {
		return fmt.Errorf("shuffle: %s frame has kind %d, want %d", name, got, want)
	}
	return nil
}

func readCount(r WireReader, name string) (int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("shuffle: %s count: %w", name, err)
	}
	if v > maxWireCount {
		return 0, fmt.Errorf("shuffle: %s count %d implausible", name, v)
	}
	return int(v), nil
}

// readLenBytes reads a uvarint length prefix and that many bytes into buf
// (grown as needed, reused across calls).
func readLenBytes(r WireReader, buf []byte, name string) ([]byte, error) {
	n, err := readCount(r, name)
	if err != nil {
		return buf, err
	}
	buf = slices.Grow(buf[:0], n)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("shuffle: %s bytes: %w", name, err)
	}
	return buf, nil
}

// encodeSpills streams every spill run: uvarint run count, then per run a
// uvarint size and the raw file bytes.
func encodeSpills(e *wireEncoder, spills []spillFile) error {
	if err := e.uvarint(uint64(len(spills))); err != nil {
		return err
	}
	for _, run := range spills {
		if err := e.uvarint(uint64(run.size)); err != nil {
			return err
		}
		if err := run.writeTo(e.w); err != nil {
			return err
		}
	}
	return nil
}

// decodeSpills restores streamed runs into fresh files under dir and
// returns them with their total size. On error, already-restored files
// are deleted.
func decodeSpills(r WireReader, dir string) ([]spillFile, int64, error) {
	n, err := readCount(r, "spill run")
	if err != nil {
		return nil, 0, err
	}
	var runs []spillFile
	var total int64
	fail := func(err error) ([]spillFile, int64, error) {
		for _, run := range runs {
			run.remove()
		}
		return nil, 0, err
	}
	for i := 0; i < n; i++ {
		size, err := binary.ReadUvarint(r)
		if err != nil {
			return fail(fmt.Errorf("shuffle: spill run %d size: %w", i, err))
		}
		if size > maxWireCount {
			return fail(fmt.Errorf("shuffle: spill run %d size %d implausible", i, size))
		}
		run, err := restoreSpill(dir, r, int64(size))
		if err != nil {
			return fail(err)
		}
		runs = append(runs, run)
		total += int64(size)
	}
	return runs, total, nil
}

//
// DecaAgg.
//

// EncodeWire writes the buffer's wire frame: kind, key table (key bytes +
// value pointer per key), page snapshot, spill runs. Value bytes never
// leave their pages until the snapshot's bulk copy.
func (b *DecaAgg[K, V]) EncodeWire(w io.Writer) error {
	if b.keyCodec == nil {
		return fmt.Errorf("shuffle: DecaAgg has no key codec; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireDecaAgg); err != nil {
		return err
	}
	if err := e.uvarint(uint64(len(b.slots))); err != nil {
		return err
	}
	// The key table is the only per-record section of the frame; entries
	// (len-prefixed key bytes + fixed 8-byte pointer) accumulate in a
	// chunk and flush in ~8 KiB writes, so the per-key cost stays at a
	// few appends rather than several writer calls. This deliberately
	// bypasses the lenBytes/ptr helpers DecaGroup's (much shorter) key
	// section uses: the wire experiment measures the helper form at
	// roughly half this encode throughput, and the agg key table is the
	// container's entire per-record cost.
	chunk := e.stage(0)
	for k, ptr := range b.slots {
		n := b.keyCodec.Size(k)
		chunk = binary.AppendUvarint(chunk, uint64(n))
		chunk = slices.Grow(chunk, n+8)
		b.keyCodec.Encode(chunk[len(chunk):len(chunk)+n], k)
		chunk = chunk[:len(chunk)+n]
		chunk = binary.LittleEndian.AppendUint32(chunk, uint32(ptr.Page))
		chunk = binary.LittleEndian.AppendUint32(chunk, uint32(ptr.Off))
		if len(chunk) >= 8<<10 {
			if err := e.raw(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	if err := e.raw(chunk); err != nil {
		return err
	}
	e.scratch = chunk[:0]
	if _, err := b.group.Snapshot(e.w); err != nil {
		return err
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeDecaAgg rebuilds an aggregation buffer from its wire frame inside
// the destination executor: pages restore into mem, spill runs land in
// spillDir, and the rebuilt slots point at the restored pages directly.
// It is stage + fold into a fresh buffer — the reduce path folds staged
// frames into its one merged buffer instead. The construction parameters
// must match the encoding side's (the engine derives both from one
// PairOps).
func DecodeDecaAgg[K comparable, V any](
	r WireReader,
	mem *memory.Manager,
	combine func(V, V) V,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaAgg[K, V], error) {
	b, err := NewDecaAgg[K, V](mem, combine, keyCodec, valCodec, spillDir)
	if err != nil {
		return nil, err
	}
	st, err := StageDecaAgg(r, mem, keyCodec.FixedSize(), spillDir)
	if err == nil {
		err = b.Fold(st)
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

//
// ObjectAgg.
//

// EncodeWire serializes the table record by record through the Kryo-style
// serializers — the per-record encode cost Deca's page snapshot avoids.
func (b *ObjectAgg[K, V]) EncodeWire(w io.Writer) error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectAgg has no serializers; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireObjectAgg); err != nil {
		return err
	}
	if err := e.uvarint(uint64(len(b.table))); err != nil {
		return err
	}
	for k, v := range b.table {
		rec := b.keySer.Marshal(e.stage(0), k)
		rec = b.valSer.Marshal(rec, *v)
		e.scratch = rec[:0]
		if err := e.lenBytes(rec); err != nil {
			return err
		}
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeObjectAgg rebuilds an object aggregation buffer by deserializing
// every record into fresh objects (the §6.5 deserialization cost).
func DecodeObjectAgg[K comparable, V any](
	r WireReader,
	combine func(V, V) V,
	cfg ObjectAggConfig[K, V],
) (*ObjectAgg[K, V], error) {
	if err := readKind(r, wireObjectAgg, "ObjectAgg"); err != nil {
		return nil, err
	}
	if cfg.KeySer == nil || cfg.ValSer == nil {
		return nil, fmt.Errorf("shuffle: ObjectAgg decode needs serializers")
	}
	b := NewObjectAgg(combine, cfg)
	n, err := readCount(r, "ObjectAgg record")
	if err != nil {
		b.Release()
		return nil, err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "ObjectAgg record"); err != nil {
			b.Release()
			return nil, err
		}
		k, kn := cfg.KeySer.Unmarshal(buf)
		if kn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectAgg record %d: corrupt key", i)
		}
		v, vn := cfg.ValSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectAgg record %d: corrupt value", i)
		}
		b.Put(k, v)
	}
	spills, total, err := decodeSpills(r, cfg.SpillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}

//
// DecaGroup.
//

// EncodeWire writes kind, per-key pointer arrays, page snapshot, spills.
// Value bytes move only in the snapshot's bulk copy; within-key value
// order is preserved by the pointer arrays.
func (b *DecaGroup[K, V]) EncodeWire(w io.Writer) error {
	if b.keyCodec == nil {
		return fmt.Errorf("shuffle: DecaGroup has no key codec; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireDecaGroup); err != nil {
		return err
	}
	if err := e.uvarint(uint64(len(b.slots))); err != nil {
		return err
	}
	for k, ptrs := range b.slots {
		key := e.stage(b.keyCodec.Size(k))
		b.keyCodec.Encode(key, k)
		if err := e.lenBytes(key); err != nil {
			return err
		}
		if err := e.uvarint(uint64(len(ptrs))); err != nil {
			return err
		}
		if err := e.ptrs(ptrs); err != nil {
			return err
		}
	}
	if _, err := b.group.Snapshot(e.w); err != nil {
		return err
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeDecaGroup rebuilds a grouping buffer from its wire frame inside
// the destination executor (stage + fold into a fresh buffer).
func DecodeDecaGroup[K comparable, V any](
	r WireReader,
	mem *memory.Manager,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaGroup[K, V], error) {
	b := NewDecaGroup[K, V](mem, keyCodec, valCodec, spillDir)
	st, err := StageDecaGroup(r, mem, keyCodec.FixedSize(), spillDir)
	if err == nil {
		err = b.Fold(st)
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

//
// ObjectGroup.
//

// EncodeWire serializes every (key, value) pair flat, in list order per
// key; decode regroups them with within-key order preserved.
func (b *ObjectGroup[K, V]) EncodeWire(w io.Writer) error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectGroup has no serializers; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireObjectGroup); err != nil {
		return err
	}
	if err := e.uvarint(uint64(b.count)); err != nil {
		return err
	}
	for k, vs := range b.table {
		for _, v := range vs {
			rec := b.keySer.Marshal(e.stage(0), k)
			rec = b.valSer.Marshal(rec, *v)
			e.scratch = rec[:0]
			if err := e.lenBytes(rec); err != nil {
				return err
			}
		}
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeObjectGroup rebuilds a grouping buffer, deserializing and boxing
// every value afresh.
func DecodeObjectGroup[K comparable, V any](
	r WireReader,
	cfg ObjectGroupConfig[K, V],
) (*ObjectGroup[K, V], error) {
	if err := readKind(r, wireObjectGroup, "ObjectGroup"); err != nil {
		return nil, err
	}
	if cfg.KeySer == nil || cfg.ValSer == nil {
		return nil, fmt.Errorf("shuffle: ObjectGroup decode needs serializers")
	}
	b := NewObjectGroup(cfg)
	n, err := readCount(r, "ObjectGroup record")
	if err != nil {
		b.Release()
		return nil, err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "ObjectGroup record"); err != nil {
			b.Release()
			return nil, err
		}
		k, kn := cfg.KeySer.Unmarshal(buf)
		if kn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectGroup record %d: corrupt key", i)
		}
		v, vn := cfg.ValSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectGroup record %d: corrupt value", i)
		}
		b.Put(k, v)
	}
	spills, total, err := decodeSpills(r, cfg.SpillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}

//
// DecaSort.
//

// EncodeWire writes kind, the pointer array in insertion order, page
// snapshot, spills: the leanest Deca frame — no key table at all, the
// records ship as pages and the ordering state as pointers.
func (b *DecaSort[K, V]) EncodeWire(w io.Writer) error {
	e := newWireEncoder(w)
	if err := e.byte(wireDecaSort); err != nil {
		return err
	}
	if err := e.uvarint(uint64(len(b.ptrs))); err != nil {
		return err
	}
	if err := e.ptrs(b.ptrs); err != nil {
		return err
	}
	if _, err := b.group.Snapshot(e.w); err != nil {
		return err
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeDecaSort rebuilds a sort buffer from its wire frame inside the
// destination executor (stage + fold into a fresh buffer). Spill runs
// arrive already sorted and join the k-way merge untouched.
func DecodeDecaSort[K comparable, V any](
	r WireReader,
	mem *memory.Manager,
	less func(a, b K) bool,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaSort[K, V], error) {
	b := NewDecaSort[K, V](mem, less, keyCodec, valCodec, spillDir)
	st, err := StageDecaSort(r, mem, spillDir)
	if err == nil {
		err = b.Fold(st)
	}
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

//
// ObjectSort.
//

// EncodeWire serializes the in-memory records in insertion order, then
// streams the sorted spill runs.
func (b *ObjectSort[K, V]) EncodeWire(w io.Writer) error {
	if b.keySer == nil || b.valSer == nil {
		return fmt.Errorf("shuffle: ObjectSort has no serializers; cannot encode")
	}
	e := newWireEncoder(w)
	if err := e.byte(wireObjectSort); err != nil {
		return err
	}
	if err := e.uvarint(uint64(len(b.records))); err != nil {
		return err
	}
	for _, rec := range b.records {
		buf := b.keySer.Marshal(e.stage(0), rec.Key)
		buf = b.valSer.Marshal(buf, rec.Value)
		e.scratch = buf[:0]
		if err := e.lenBytes(buf); err != nil {
			return err
		}
	}
	if err := encodeSpills(e, b.spills); err != nil {
		return err
	}
	return e.flush()
}

// DecodeObjectSort rebuilds an object sort buffer, materializing every
// record object afresh.
func DecodeObjectSort[K comparable, V any](
	r WireReader,
	less func(a, b K) bool,
	cfg ObjectSortConfig[K, V],
) (*ObjectSort[K, V], error) {
	if err := readKind(r, wireObjectSort, "ObjectSort"); err != nil {
		return nil, err
	}
	if cfg.KeySer == nil || cfg.ValSer == nil {
		return nil, fmt.Errorf("shuffle: ObjectSort decode needs serializers")
	}
	b := NewObjectSort(less, cfg)
	n, err := readCount(r, "ObjectSort record")
	if err != nil {
		b.Release()
		return nil, err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, "ObjectSort record"); err != nil {
			b.Release()
			return nil, err
		}
		k, kn := cfg.KeySer.Unmarshal(buf)
		if kn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectSort record %d: corrupt key", i)
		}
		v, vn := cfg.ValSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			b.Release()
			return nil, fmt.Errorf("shuffle: ObjectSort record %d: corrupt value", i)
		}
		b.Put(k, v)
	}
	spills, total, err := decodeSpills(r, cfg.SpillDir)
	if err != nil {
		b.Release()
		return nil, err
	}
	b.spills = spills
	b.spilled = total
	return b, nil
}
