package shuffle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
)

// Wire codecs: every shuffle buffer has a self-describing byte frame so a
// network transport can move map output between executors. The asymmetry
// the paper measures in §6.5 is built in:
//
//   - Deca containers encode as header + key/pointer table + a page
//     snapshot (memory.Group.Snapshot): the record bytes are already in
//     wire format, so the frame is built as segments that reference the
//     pages in place (segments.go; EncodeWire is those segments flushed
//     through a writer) and decoding restores pages into the destination
//     executor's manager with the pointers valid as-is (page boundaries
//     survive the frame, so the rebase is the identity).
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
// reusable staging buffer for record bytes — the Object containers'
// record-by-record frame writer. All output is buffered (small records
// coalesce into few large writes; spill runs pass through) — the caller
// must flush.
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

// lenBytes writes b with a uvarint length prefix.
func (e *wireEncoder) lenBytes(b []byte) error {
	if err := e.uvarint(uint64(len(b))); err != nil {
		return err
	}
	return e.raw(b)
}

// ptrChunk is how many pointers a bulk stage (stagePtrs) or bulk read
// (tableReader.readPtrs) moves per call.
const ptrChunk = 1024

func readKind(r WireReader, want byte) error {
	name := kindName(want)
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
// Object containers: one record-frame writer and one reader.
//

// encodeRecords writes an Object container's frame — kind, record count,
// every in-memory record as one length-prefixed Marshal(key)+Marshal(value)
// through the Kryo-style serializers (the per-record encode cost Deca's
// page snapshot avoids), then the spill runs. records calls emit once per
// record, n times in all.
func encodeRecords[K comparable, V any](
	w io.Writer, kind byte, n int,
	keySer serial.Serializer[K], valSer serial.Serializer[V],
	records func(emit func(K, V) error) error,
	spills []spillFile,
) error {
	if keySer == nil || valSer == nil {
		return fmt.Errorf("shuffle: %s has no serializers; cannot encode", kindName(kind))
	}
	e := newWireEncoder(w)
	if err := e.byte(kind); err != nil {
		return err
	}
	if err := e.uvarint(uint64(n)); err != nil {
		return err
	}
	err := records(func(k K, v V) error {
		e.scratch = valSer.Marshal(keySer.Marshal(e.scratch[:0], k), v)
		return e.lenBytes(e.scratch)
	})
	if err != nil {
		return err
	}
	if err := encodeSpills(e, spills); err != nil {
		return err
	}
	return e.flush()
}

// decodeRecords reads an encodeRecords frame inside the destination
// executor: every record deserializes into fresh objects handed to put
// (the §6.5 deserialization cost) and the spill runs land in spillDir,
// returned with their total size.
func decodeRecords[K comparable, V any](
	r WireReader, kind byte,
	keySer serial.Serializer[K], valSer serial.Serializer[V], spillDir string,
	put func(K, V),
) ([]spillFile, int64, error) {
	name := kindName(kind)
	if err := readKind(r, kind); err != nil {
		return nil, 0, err
	}
	if keySer == nil || valSer == nil {
		return nil, 0, fmt.Errorf("shuffle: %s decode needs serializers", name)
	}
	recName := name + " record"
	n, err := readCount(r, recName)
	if err != nil {
		return nil, 0, err
	}
	var buf []byte
	for i := 0; i < n; i++ {
		if buf, err = readLenBytes(r, buf, recName); err != nil {
			return nil, 0, err
		}
		k, kn := keySer.Unmarshal(buf)
		if kn <= 0 {
			return nil, 0, fmt.Errorf("shuffle: %s %d: corrupt key", recName, i)
		}
		v, vn := valSer.Unmarshal(buf[kn:])
		if vn <= 0 {
			return nil, 0, fmt.Errorf("shuffle: %s %d: corrupt value", recName, i)
		}
		put(k, v)
	}
	return decodeSpills(r, spillDir)
}

// EncodeWire serializes the table record by record.
func (b *ObjectAgg[K, V]) EncodeWire(w io.Writer) error {
	return encodeRecords(w, wireObjectAgg, len(b.table), b.keySer, b.valSer,
		func(emit func(K, V) error) error {
			for k, v := range b.table {
				if err := emit(k, *v); err != nil {
					return err
				}
			}
			return nil
		}, b.spills)
}

// DecodeObjectAgg rebuilds an object aggregation buffer from its frame.
func DecodeObjectAgg[K comparable, V any](
	r WireReader,
	combine func(V, V) V,
	cfg ObjectAggConfig[K, V],
) (*ObjectAgg[K, V], error) {
	b := NewObjectAgg(combine, cfg)
	var err error
	b.spills, b.spilled, err = decodeRecords(r, wireObjectAgg, cfg.KeySer, cfg.ValSer, cfg.SpillDir, b.Put)
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// EncodeWire serializes every (key, value) pair flat, in list order per
// key; decode regroups them with within-key order preserved.
func (b *ObjectGroup[K, V]) EncodeWire(w io.Writer) error {
	return encodeRecords(w, wireObjectGroup, b.count, b.keySer, b.valSer,
		func(emit func(K, V) error) error {
			for k, vs := range b.table {
				for _, v := range vs {
					if err := emit(k, *v); err != nil {
						return err
					}
				}
			}
			return nil
		}, b.spills)
}

// DecodeObjectGroup rebuilds a grouping buffer, boxing every value afresh.
func DecodeObjectGroup[K comparable, V any](
	r WireReader,
	cfg ObjectGroupConfig[K, V],
) (*ObjectGroup[K, V], error) {
	b := NewObjectGroup(cfg)
	var err error
	b.spills, b.spilled, err = decodeRecords(r, wireObjectGroup, cfg.KeySer, cfg.ValSer, cfg.SpillDir, b.Put)
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// EncodeWire serializes the in-memory records in insertion order, then
// streams the sorted spill runs.
func (b *ObjectSort[K, V]) EncodeWire(w io.Writer) error {
	return encodeRecords(w, wireObjectSort, len(b.records), b.keySer, b.valSer,
		func(emit func(K, V) error) error {
			for _, rec := range b.records {
				if err := emit(rec.Key, rec.Value); err != nil {
					return err
				}
			}
			return nil
		}, b.spills)
}

// DecodeObjectSort rebuilds an object sort buffer, materializing every
// record object afresh.
func DecodeObjectSort[K comparable, V any](
	r WireReader,
	less func(a, b K) bool,
	cfg ObjectSortConfig[K, V],
) (*ObjectSort[K, V], error) {
	b := NewObjectSort(less, cfg)
	var err error
	b.spills, b.spilled, err = decodeRecords(r, wireObjectSort, cfg.KeySer, cfg.ValSer, cfg.SpillDir, b.Put)
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

//
// Deca containers: EncodeWire is EncodeSegments flushed through a writer
// (segments.go); decode is stage + fold into a fresh buffer — the reduce
// path folds staged frames into its one merged buffer instead. The
// construction parameters must match the encoding side's (the engine
// derives both from one PairOps).
//

// DecodeDecaAgg rebuilds an aggregation buffer from its wire frame inside
// the destination executor: pages restore into mem, spill runs land in
// spillDir, and the rebuilt slots point at the restored pages directly.
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

// DecodeDecaGroup rebuilds a grouping buffer from its wire frame.
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

// DecodeDecaSort rebuilds a sort buffer from its wire frame. Spill runs
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
