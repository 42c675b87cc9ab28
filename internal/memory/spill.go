package memory

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Raw page I/O (Appendix C): decomposed data bytes are written to disk
// directly and read from there in place, with no serialization step in
// either direction. The on-disk format is one batched header — magic, page
// count, then every page length — followed by the raw page bytes, the
// header and every page body padded with zeros to a multiple of 8 bytes.
// A spill is one small write plus one large write per page; the padding
// puts every page at an 8-byte-aligned file offset, so a mapping of the
// file (MapGroup) is a page group as it stands: identical pointers, and
// pages that decompose.Float64s/Int64s view in place like the manager's own.

const (
	spillMagic = uint32(0xDEC0DE01)
	spillAlign = 8
)

// spillPad is how many zero bytes follow n bytes of the spill format.
func spillPad(n int) int { return -n & (spillAlign - 1) }

// WriteTo writes the group's pages to w in the raw spill format. The
// whole header (magic + count + per-page lengths + padding) goes out as a
// single write, then each page as one bulk write, followed by its padding
// when its length is not a multiple of 8. It returns the number of bytes
// written.
func (g *Group) WriteTo(w io.Writer) (int64, error) {
	g.checkLive()
	var written int64
	hdrLen := 8 + 4*len(g.pages)
	hdr := make([]byte, hdrLen+spillPad(hdrLen))
	binary.LittleEndian.PutUint32(hdr[0:4], spillMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(g.pages)))
	for i, p := range g.pages {
		binary.LittleEndian.PutUint32(hdr[8+4*i:], uint32(len(p)))
	}
	n, err := w.Write(hdr)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var zeros [spillAlign]byte
	for _, p := range g.pages {
		n, err = w.Write(p)
		written += int64(n)
		if err != nil {
			return written, err
		}
		if pad := spillPad(len(p)); pad > 0 {
			n, err = w.Write(zeros[:pad])
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// MapGroup maps the spill file at path read-only and returns a group whose
// pages are views of the mapping: nothing is read, and pointers recorded
// before the spill address the same segments. The pages are not manager
// memory — never parked, not counted in PageBytesInUse, Footprint 0 — the
// group is sealed (Alloc panics; a write through a page faults), and its last
// Release unmaps the file. The caller keeps the file as long as the group:
// it may unlink it, it must not truncate it.
//
// The file is not trusted. The mapping covers exactly the file's size at
// open, and before a page is handed out the header is checked against that
// size: magic, a page count the file has room to list, and header plus
// padded page lengths summing to the size exactly. A truncated, extended or
// corrupt file is therefore an error here, never a fault in whoever scans
// the pages.
func MapGroup(m *Manager, path string) (*Group, error) {
	data, err := mapPath(path, -1)
	if err == nil && len(data) < 8 {
		unmap(data)
		err = fmt.Errorf("implausible size %d", len(data))
	}
	if err != nil {
		return nil, fmt.Errorf("memory: spill file %s: %w", path, err)
	}
	pages, bytes, err := spillPages(data)
	if err != nil {
		unmap(data)
		return nil, fmt.Errorf("memory: spill file %s: %w", path, err)
	}
	g := m.NewGroup()
	g.mapping, g.pages, g.bytes = data, pages, bytes
	return g, nil
}

// FileMapping is a whole file mapped read-only (MapFile). Its bytes are
// valid until Release: where there is mmap, a read after it faults instead
// of returning stale bytes.
type FileMapping struct{ data []byte }

// MapFile maps the file at path, which must hold exactly size bytes: a
// file of any other size is an error before anything is mapped, never a
// SIGBUS in whoever reads past its end. An empty file is an empty mapping,
// made without an mmap call. It shares MapGroup's one mapping site
// (mapPath), and returns the mapping as a value: the caller's Release
// unmaps it.
func MapFile(path string, size int64) (FileMapping, error) {
	data, err := mapPath(path, size)
	return FileMapping{data}, err
}

// Bytes is the mapped file.
func (fm FileMapping) Bytes() []byte { return fm.data }

// Release unmaps the file.
func (fm FileMapping) Release() { unmap(fm.data) }

// mapPath maps the whole file at path (mapFile). want >= 0 is the size the
// caller recorded for it: a file of another size is refused unmapped. An
// empty file maps to nil with no mmap call (mmap refuses length 0).
func mapPath(path string, want int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	size, err := fileSize(f)
	switch {
	case err != nil:
		return nil, err
	case want >= 0 && size != want:
		return nil, fmt.Errorf("%d bytes on disk, %d recorded", size, want)
	case int64(int(size)) != size:
		return nil, fmt.Errorf("implausible size %d", size)
	case size == 0:
		return nil, nil
	}
	data, err := mapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	return data, nil
}

// spillPages validates data as a whole spill file and returns its pages as
// capacity-clipped views of it, with their total length.
func spillPages(data []byte) ([][]byte, int64, error) {
	if got := binary.LittleEndian.Uint32(data[0:4]); got != spillMagic {
		return nil, 0, fmt.Errorf("bad magic %#x", got)
	}
	numPages := int64(binary.LittleEndian.Uint32(data[4:8]))
	size := int64(len(data))
	hdrLen := 8 + 4*numPages
	hdrLen += int64(spillPad(int(hdrLen)))
	if hdrLen > size {
		return nil, 0, fmt.Errorf("%d pages announced, %d bytes of file", numPages, size)
	}
	pages := make([][]byte, numPages)
	off, total := hdrLen, int64(0)
	for i := range pages {
		n := int64(binary.LittleEndian.Uint32(data[8+4*i:]))
		if n > size-off {
			return nil, 0, fmt.Errorf("page %d: %d bytes announced at offset %d of %d", i, n, off, size)
		}
		pages[i] = data[off : off+n : off+n]
		total += n
		off += n + int64(spillPad(int(n)))
	}
	if off != size {
		return nil, 0, fmt.Errorf("%d pages end at offset %d, file has %d bytes", numPages, off, size)
	}
	return pages, total, nil
}
