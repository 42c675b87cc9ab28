package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/transport"
)

// Wire codecs: every shuffle buffer has a self-describing byte frame so a
// network transport can move map output between executors. The asymmetry
// the paper measures in §6.5 is built in:
//
//   - Deca containers encode as header + a page snapshot
//     (memory.Group.Snapshot): the record bytes — keys, values and the
//     links between them — are already in wire format, so the frame
//     references the pages in place (pagestore.go) and staging restores
//     them into the destination executor's manager with links valid as-is
//     (page boundaries survive the frame).
//   - Object containers serialize through internal/serial, record by
//     record (boxedstore.go), and their Fold deserializes every record
//     into fresh objects — the allocation and GC cost Kryo/SparkSer pays
//     on every remote fetch.
//   - Spill runs cross the wire as raw file bytes on both paths (sendfile
//     on a socket) and land in the destination's spill directory.
//
// Every container builds its frame as transport.FrameSegments
// (EncodeSegments), and every frame is received by Stage and the
// container's Fold (stage.go). Each frame opens with a kind byte; a frame
// handed to the wrong container's Fold fails loudly instead of misparsing.

// WireReader is the stream a container frame decodes from: byte-level
// reads for headers plus bulk reads for pages and spill runs.
// *bytes.Reader and *bufio.Reader both satisfy it.
type WireReader interface {
	io.Reader
	io.ByteReader
}

// Frame kind bytes. 5 and 6 were the deleted sort containers' kinds and
// are never reused: Stage rejects them like any other byte past
// wireObjectGroup.
const (
	wireDecaAgg byte = iota + 1
	wireObjectAgg
	wireDecaGroup
	wireObjectGroup
)

// maxWireCount bounds table counts and record lengths read off the wire,
// rejecting corrupt headers before they turn into huge allocations.
const maxWireCount = 1 << 31

// objectKind reports whether a frame kind is an Object container's (the
// even ones): records serialized one by one, no pages.
func objectKind(kind byte) bool { return kind%2 == 0 }

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

// newFrame starts every container's frame: kind byte | uvarint n. The
// container appends its body and ends it with its runSet's endFrame.
//
//deca:owns
func newFrame(kind byte, n int) *transport.FrameSegments {
	fs := transport.NewFrameSegments()
	fs.Stage(1)[0] = kind
	stageUvarint(fs, uint64(n))
	return fs
}

// stageUvarint stages v at the frame's current position.
func stageUvarint(fs *transport.FrameSegments, v uint64) {
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], v)
	copy(fs.Stage(k), hdr[:k])
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
