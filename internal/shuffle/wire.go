package shuffle

import (
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
//   - Deca containers encode as header (+ DecaSort's pointer array) + a
//     page snapshot (memory.Group.Snapshot): the record bytes — keys,
//     values and the links between them — are already in wire format, so
//     the frame is built as segments that reference the pages in place
//     (pagestore.go; EncodeWire is those segments flushed through a
//     writer) and decoding restores pages into the destination executor's
//     manager with pointers and links valid as-is (page boundaries survive
//     the frame).
//   - Object containers round-trip through internal/serial, record by
//     record (boxedstore.go): decode materializes fresh objects,
//     re-creating the allocation and GC cost Kryo/SparkSer pays on every
//     remote fetch.
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

// DecodeObjectAgg rebuilds an object aggregation buffer from its frame.
func DecodeObjectAgg[K comparable, V any](r WireReader, combine func(V, V) V, cfg ObjectConfig[K, V]) (*ObjectAgg[K, V], error) {
	b := NewObjectAgg(combine, cfg)
	if err := b.decodeRecords(r, wireObjectAgg, b.Put); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// DecodeObjectGroup rebuilds a grouping buffer, boxing every value afresh.
func DecodeObjectGroup[K comparable, V any](r WireReader, cfg ObjectConfig[K, V]) (*ObjectGroup[K, V], error) {
	b := NewObjectGroup(cfg)
	if err := b.decodeRecords(r, wireObjectGroup, b.Put); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// DecodeObjectSort rebuilds an object sort buffer, materializing every
// record object afresh.
func DecodeObjectSort[K comparable, V any](r WireReader, less func(a, b K) bool, cfg ObjectConfig[K, V]) (*ObjectSort[K, V], error) {
	b := NewObjectSort(less, cfg)
	if err := b.decodeRecords(r, wireObjectSort, b.Put); err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

//
// Deca containers: EncodeWire is EncodeSegments flushed through a writer
// (pagestore.go); decode is stage + fold into a fresh buffer — the reduce
// path folds staged frames into its one merged buffer instead. The
// construction parameters must match the encoding side's (the engine
// derives both from one PairOps).
//

// folded finishes every DecodeDeca*: fold the staged frame (if staging
// succeeded) into the fresh buffer b, which is released on any error.
func folded[B interface {
	Fold(*Staged) error
	Release()
}](b B, st *Staged, err error) (B, error) {
	if err == nil {
		err = b.Fold(st)
	}
	if err != nil {
		b.Release()
		var none B
		return none, err
	}
	return b, nil
}

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
	st, err := Stage(r, mem, spillDir)
	return folded(b, st, err)
}

// DecodeDecaGroup rebuilds a grouping buffer from its wire frame.
func DecodeDecaGroup[K comparable, V any](
	r WireReader,
	mem *memory.Manager,
	keyCodec decompose.Codec[K],
	valCodec decompose.Codec[V],
	spillDir string,
) (*DecaGroup[K, V], error) {
	st, err := Stage(r, mem, spillDir)
	return folded(NewDecaGroup[K, V](mem, keyCodec, valCodec, spillDir), st, err)
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
	st, err := Stage(r, mem, spillDir)
	return folded(NewDecaSort[K, V](mem, less, keyCodec, valCodec, spillDir), st, err)
}
