package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"deca/internal/memory"
	"deca/internal/transport"
)

// The Deca frame writers: each EncodeSegments builds its container's wire
// frame as transport.FrameSegments — headers and key/pointer tables
// staged into the frame's scratch chunks, page snapshots referenced in
// place from the retained page group, spill runs referenced as opened
// files — and EncodeWire is those same segments flushed through a writer,
// so there is one definition of the frame's bytes. The serve path ships
// the segments with writev/sendfile instead of staging the frame.
//
// A frame is kind byte | uvarint n | key/pointer table (layouts in
// stage.go) | memory.Group.Snapshot | spill section (run count, then per
// run a uvarint size and the raw file bytes). A pointer is two fixed
// little-endian uint32s, bulk-copyable on both ends; value bytes never
// leave their pages.
//
// Ownership: EncodeSegments retains the buffer's page group and opens
// its spill files; both hand their release to the returned
// FrameSegments, whose Release the caller must invoke exactly once after
// the last segment byte is consumed. The buffer must stay registered
// (unmutated) while any of its frames is in flight.

// writeSegments is every Deca EncodeWire: build the frame, flush its
// segments through w, release it.
func writeSegments(w io.Writer, encode func() (*transport.FrameSegments, error)) error {
	fs, err := encode()
	if err != nil {
		return err
	}
	defer fs.Release()
	_, err = fs.WriteTo(w)
	return err
}

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaAgg[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaGroup[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// EncodeWire writes the buffer's wire frame to w.
func (b *DecaSort[K, V]) EncodeWire(w io.Writer) error { return writeSegments(w, b.EncodeSegments) }

// stageUvarint stages v at the frame's current position.
func stageUvarint(fs *transport.FrameSegments, v uint64) {
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], v)
	copy(fs.Stage(k), hdr[:k])
}

// appendGroupSegments appends the group's Snapshot byte-for-byte: staged
// varint headers interleaved with in-place page references.
func appendGroupSegments(fs *transport.FrameSegments, g *memory.Group) {
	g.SnapshotSegments(fs.Stage, fs.AppendPage)
}

// appendSpillSegments appends the spill section: run count, then per run
// a staged uvarint size and the run's file contents served from an opened
// descriptor (the sendfile path). On error the frame is NOT
// released — the caller's cleanup handles it — but no file stays open
// beyond the ones already appended (owned by fs).
func appendSpillSegments(fs *transport.FrameSegments, spills []spillFile) error {
	stageUvarint(fs, uint64(len(spills)))
	for _, run := range spills {
		stageUvarint(fs, uint64(run.size))
		f, err := os.Open(run.path)
		if err != nil {
			return fmt.Errorf("shuffle: opening spill %s: %w", run.path, err)
		}
		fs.AppendFile(f, run.size)
	}
	return nil
}

// EncodeSegments builds the DecaAgg frame.
func (b *DecaAgg[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	if b.keyCodec == nil {
		return nil, fmt.Errorf("shuffle: DecaAgg has no key codec; cannot encode")
	}
	fs := transport.NewFrameSegments()
	fs.Owner(b.group.Retain().Release)
	ok := false
	defer func() {
		if !ok {
			fs.Release()
		}
	}()
	fs.Stage(1)[0] = wireDecaAgg
	stageUvarint(fs, uint64(len(b.slots)))
	for k, ptr := range b.slots {
		n := b.keyCodec.Size(k)
		e := fs.Stage(uvarintLen(uint64(n)) + n + 8)
		off := binary.PutUvarint(e, uint64(n))
		b.keyCodec.Encode(e[off:off+n], k)
		binary.LittleEndian.PutUint32(e[off+n:], uint32(ptr.Page))
		binary.LittleEndian.PutUint32(e[off+n+4:], uint32(ptr.Off))
	}
	appendGroupSegments(fs, b.group)
	if err := appendSpillSegments(fs, b.spills); err != nil {
		return nil, err
	}
	ok = true
	return fs, nil
}

// EncodeSegments builds the DecaGroup frame; within-key value order is
// preserved by the pointer arrays.
func (b *DecaGroup[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	if b.keyCodec == nil {
		return nil, fmt.Errorf("shuffle: DecaGroup has no key codec; cannot encode")
	}
	fs := transport.NewFrameSegments()
	fs.Owner(b.group.Retain().Release)
	ok := false
	defer func() {
		if !ok {
			fs.Release()
		}
	}()
	fs.Stage(1)[0] = wireDecaGroup
	stageUvarint(fs, uint64(len(b.slots)))
	for k, ptrs := range b.slots {
		n := b.keyCodec.Size(k)
		e := fs.Stage(uvarintLen(uint64(n)) + n)
		off := binary.PutUvarint(e, uint64(n))
		b.keyCodec.Encode(e[off:off+n], k)
		stageUvarint(fs, uint64(len(ptrs)))
		stagePtrs(fs, ptrs)
	}
	appendGroupSegments(fs, b.group)
	if err := appendSpillSegments(fs, b.spills); err != nil {
		return nil, err
	}
	ok = true
	return fs, nil
}

// EncodeSegments builds the DecaSort frame: the leanest one — no key
// table at all, the records ship as pages and the ordering state as
// pointers.
func (b *DecaSort[K, V]) EncodeSegments() (*transport.FrameSegments, error) {
	fs := transport.NewFrameSegments()
	fs.Owner(b.group.Retain().Release)
	ok := false
	defer func() {
		if !ok {
			fs.Release()
		}
	}()
	fs.Stage(1)[0] = wireDecaSort
	stageUvarint(fs, uint64(len(b.ptrs)))
	stagePtrs(fs, b.ptrs)
	appendGroupSegments(fs, b.group)
	if err := appendSpillSegments(fs, b.spills); err != nil {
		return nil, err
	}
	ok = true
	return fs, nil
}

// stagePtrs stages a pointer array in the ptrs wire layout (fixed 8-byte
// little-endian pairs), chunked so one huge array does not demand one
// contiguous scratch region.
func stagePtrs(fs *transport.FrameSegments, ps []memory.Ptr) {
	for len(ps) > 0 {
		n := min(len(ps), ptrChunk)
		buf := fs.Stage(8 * n)
		for i, p := range ps[:n] {
			binary.LittleEndian.PutUint32(buf[8*i:], uint32(p.Page))
			binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(p.Off))
		}
		ps = ps[n:]
	}
}

// uvarintLen is the encoded length of v.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// PageOccupancy reports the group's used bytes against its page
// footprint — the per-dataset occupancy signal the engine samples at
// spill time (low occupancy at spill means the page size is wrong for
// the dataset's record shape; the first input to adaptive page sizing).
func (b *DecaAgg[K, V]) PageOccupancy() (used, footprint int64) {
	return b.group.Len(), b.group.Footprint()
}

// PageOccupancy reports used bytes against page footprint.
func (b *DecaGroup[K, V]) PageOccupancy() (used, footprint int64) {
	return b.group.Len(), b.group.Footprint()
}

// PageOccupancy reports used bytes against page footprint.
func (b *DecaSort[K, V]) PageOccupancy() (used, footprint int64) {
	return b.group.Len(), b.group.Footprint()
}
