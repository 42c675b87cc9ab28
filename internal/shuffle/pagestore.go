package shuffle

import (
	"encoding/binary"
	"fmt"
	"io"

	"deca/internal/memory"
	"deca/internal/transport"
)

// pageStore is the page storage layer under DecaAgg, DecaGroup, DecaSort
// and a staged frame: the page group the records live in and the spill
// runs that die with it. A container embeds one by value and keeps only
// its index over the pages (DecaAgg, DecaGroup: a hash table of key-record
// pointers, manager memory too; DecaSort: a sortable pointer array) plus
// the Put/Drain/absorb that read it; spilling, adopting another store, the
// wire frame and the end of the lifetime are written here, once.
//
// The frame (built by encodeSegments, parsed by Stage) is kind byte |
// uvarint n | DecaSort only: n record pointers, two fixed little-endian
// uint32s each, bulk-copyable on both ends | memory.Group.Snapshot | spill
// section (runSet.restore). Record bytes never leave their pages.
type pageStore struct {
	group *memory.Group //deca:owns (released by Release; adopt takes other stores' pages in as dependencies)
	runSet
}

func newPageStore(mem *memory.Manager, spillDir string) pageStore {
	return pageStore{group: mem.NewGroup(), runSet: runSet{dir: spillDir}}
}

// PageOccupancy reports the group's used bytes against its page
// footprint — the per-dataset occupancy signal the engine samples at
// spill time (low occupancy at spill means the page size is wrong for
// the dataset's record shape; the first input to adaptive page sizing).
func (ps *pageStore) PageOccupancy() (used, footprint int64) {
	return ps.group.Len(), ps.group.Footprint()
}

// spillPages writes the in-memory records as one run — fn streams them
// straight out of the pages, already in I/O form (Appendix C) — and resets
// the pages for reuse. The caller clears its index afterwards.
func (ps *pageStore) spillPages(fn func(w *spillWriter) error) error {
	if err := ps.write(fn); err != nil {
		return err
	}
	ps.group.Reset()
	return nil
}

// adopt is the shell MergeFrom and Fold share: src's spill runs transfer
// by file handle and, when src indexes n > 0 in-memory entries, ps adopts
// its page group wholesale (the pages are retained as a dependency, no
// bytes move — §4.3.3's depPages applied to the reduce merge). base
// rebases src's pointers into ps's address space; !ok means there is no
// index to walk.
func (ps *pageStore) adopt(src *pageStore, n int) (base int, ok bool) {
	ps.take(&src.runSet)
	if n == 0 {
		return 0, false
	}
	return ps.group.AdoptPages(src.group), true
}

// adoptStaged is the head of every Fold: check the frame is of the
// container's own kind, then adopt it like any other store.
func (ps *pageStore) adoptStaged(st *Staged, kind byte) (base int, ok bool, err error) {
	if st.released || st.kind != kind {
		return 0, false, fmt.Errorf("shuffle: %s cannot fold a staged %s frame (released=%v)", kindName(kind), kindName(st.kind), st.released)
	}
	base, ok = ps.adopt(&st.pageStore, st.n)
	return base, ok, nil
}

// encodeSegments builds a container's wire frame as
// transport.FrameSegments: the header and the index's table (n entries,
// staged by table; nil when the kind has none) go into the frame's scratch
// chunks, the page snapshot is referenced in place from the retained
// group, spill runs are referenced as opened files — the serve path ships
// them with writev/sendfile instead of staging the frame.
//
// Ownership: the frame retains the page group and holds the opened spill
// files until the caller invokes its Release, exactly once, after the last
// segment byte is consumed. The buffer must stay registered (unmutated)
// while any of its frames is in flight.
//
//deca:owns
func (ps *pageStore) encodeSegments(kind byte, n int, table func(fs *transport.FrameSegments)) (*transport.FrameSegments, error) {
	fs := transport.NewFrameSegments()
	fs.Owner(ps.group.Retain().Release)
	fs.Stage(1)[0] = kind
	stageUvarint(fs, uint64(n))
	if table != nil {
		table(fs)
	}
	ps.group.SnapshotSegments(fs.Stage, fs.AppendPage)
	if err := ps.appendSegments(fs); err != nil {
		fs.Release()
		return nil, err
	}
	return fs, nil
}

// writeSegments is every Deca EncodeWire: build the frame, flush its
// segments through w, release it — one definition of the frame's bytes.
func writeSegments(w io.Writer, encode func() (*transport.FrameSegments, error)) error {
	fs, err := encode()
	if err != nil {
		return err
	}
	defer fs.Release()
	_, err = fs.WriteTo(w)
	return err
}

// Release frees the page group wholesale and deletes the spill files: the
// container's lifetime ends, its space reclaims at once. Idempotent.
func (ps *pageStore) Release() {
	if ps.release() {
		ps.group.Release()
	}
}

// stageUvarint stages v at the frame's current position.
func stageUvarint(fs *transport.FrameSegments, v uint64) {
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], v)
	copy(fs.Stage(k), hdr[:k])
}

// putPtr writes p in the wire layout getPtr reads.
func putPtr(b []byte, p memory.Ptr) {
	binary.LittleEndian.PutUint32(b, uint32(p.Page))
	binary.LittleEndian.PutUint32(b[4:], uint32(p.Off))
}

// stagePtrs stages a pointer array in the ptrs wire layout (fixed 8-byte
// little-endian pairs), chunked so one huge array does not demand one
// contiguous scratch region.
func stagePtrs(fs *transport.FrameSegments, ps []memory.Ptr) {
	for len(ps) > 0 {
		n := min(len(ps), ptrChunk)
		buf := fs.Stage(8 * n)
		for i, p := range ps[:n] {
			putPtr(buf[8*i:], p)
		}
		ps = ps[n:]
	}
}
