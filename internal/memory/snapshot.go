package memory

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The page-group wire frame: because a group already holds records as
// contiguous bytes, its network representation is the pages themselves —
// a count header followed by each page's used prefix, length-prefixed.
// Page boundaries are preserved exactly, so every Ptr minted in the
// source group addresses the same segment in the restored group without
// translation (a restore starts at page 0, making Ptr.Rebase the
// identity). This is the property the paper's serialization experiments
// (§6.5) turn on: shipping a Deca container costs a handful of bulk
// copies, not a per-record encode.

// maxSnapshotPage bounds a single restored page, guarding RestoreGroup
// against corrupt or hostile length headers off the wire.
const maxSnapshotPage = 1 << 31

// ByteReader is the stream shape RestoreGroup consumes: byte-level reads
// for the varint headers plus bulk reads for page bodies. *bufio.Reader
// and *bytes.Reader both satisfy it. Byte-level varint reads consume
// exactly the frame's bytes, so a caller may continue decoding its own
// trailing sections from the same stream.
type ByteReader interface {
	io.Reader
	io.ByteReader
}

// Snapshot writes the group as a framed page sequence and returns the
// number of bytes written: uvarint page count, then for each page a
// uvarint length and the page's used bytes, emitted straight from the
// page — no per-record work, no staging copy.
func (g *Group) Snapshot(w io.Writer) (int64, error) {
	g.checkLive()
	var written int64
	var hdr [binary.MaxVarintLen64]byte
	n, err := w.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(g.pages)))])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("memory: snapshot header: %w", err)
	}
	for _, p := range g.pages {
		n, err = w.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(p)))])
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("memory: snapshot page header: %w", err)
		}
		n, err = w.Write(p)
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("memory: snapshot page: %w", err)
		}
	}
	return written, nil
}

// SnapshotSegments emits the exact byte sequence Snapshot writes,
// decomposed for a vectored sender: stage(n) must return an n-byte
// scratch region at the stream's current position (varint headers are
// built in place there), and page(p) receives each page's used prefix to
// ship by reference — no copy is made, so the caller must keep the group
// retained until the referenced bytes have been sent. Keeping this
// callback-shaped leaves the memory layer free of any transport types.
func (g *Group) SnapshotSegments(stage func(n int) []byte, page func(p []byte)) {
	g.checkLive()
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(len(g.pages)))
	copy(stage(k), hdr[:k])
	for _, p := range g.pages {
		k = binary.PutUvarint(hdr[:], uint64(len(p)))
		copy(stage(k), hdr[:k])
		page(p)
	}
}

// SnapshotSize returns the exact byte length Snapshot will write.
func (g *Group) SnapshotSize() int64 {
	g.checkLive()
	total := int64(uvarintLen(uint64(len(g.pages))))
	for _, p := range g.pages {
		total += int64(uvarintLen(uint64(len(p)))) + int64(len(p))
	}
	return total
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// RestoreGroup rebuilds a snapshotted page group inside this manager: the
// destination executor's side of a remote shuffle fetch. Pages come from
// this manager's reserve and are charged against its budget, page boundaries
// and offsets are preserved one-to-one with the source, and the restored
// group owns all of its pages (no adoptions, refcount 1). On any error
// the partially restored group is released before returning.
func (m *Manager) RestoreGroup(r ByteReader) (*Group, error) {
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("memory: restore header: %w", err)
	}
	if count > maxSnapshotPage {
		return nil, fmt.Errorf("memory: restore: implausible page count %d", count)
	}
	g := m.NewGroup()
	// The header announces the page count: size the page array once (up to
	// a bound a corrupt header cannot abuse) instead of growing it per page.
	g.pages = make([][]byte, 0, min(count, 1<<10))
	for i := uint64(0); i < count; i++ {
		plen, err := binary.ReadUvarint(r)
		if err != nil {
			g.Release()
			return nil, fmt.Errorf("memory: restore page %d header: %w", i, err)
		}
		if plen > maxSnapshotPage {
			g.Release()
			return nil, fmt.Errorf("memory: restore page %d: implausible length %d", i, plen)
		}
		page, err := m.restorePage(r, int(plen))
		// Append the page directly — Alloc would pack small source pages
		// together and break the Ptr address space.
		g.pages = append(g.pages, page)
		if g.adopted != nil {
			g.adopted = append(g.adopted, false)
		}
		g.bytes += int64(len(page))
		if err != nil {
			g.Release()
			return nil, fmt.Errorf("memory: restore page %d body: %w", i, err)
		}
	}
	return g, nil
}

// restorePage reads one n-byte page body into a page of this manager,
// returning the page (to be released with its group) even beside an error.
// An empty page announces no bytes, so it takes no page — a frame's
// page headers must not cost the manager more than they announce — but it
// keeps its index slot: later pages' Ptrs count it. A page that fits the
// manager's page size — every page but an oversized single object's — is
// taken up front and filled in place; nothing is appended to a restored
// page, so a short one (a frame's last page, at most half a page) is a block
// of its own size, not a page's worth of memory. An oversized one is
// believed only as far as its bytes arrive: the body is read into a buffer that doubles
// (never past n) and moves into its page once complete, so a header that
// announces a gigabyte and delivers sixteen bytes costs one page size, not
// the gigabyte.
func (m *Manager) restorePage(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if n <= m.pageSize {
		var page []byte
		if n <= m.pageSize/2 {
			page, _ = m.take(n)
		} else {
			page = m.getPage(n)
		}
		page = page[:n]
		_, err := io.ReadFull(r, page)
		return page, err
	}
	body := make([]byte, m.pageSize)
	for got := 0; ; {
		k, err := io.ReadFull(r, body[got:])
		if got += k; err != nil {
			return nil, err
		}
		if got == n {
			return append(m.getPage(n), body...), nil
		}
		body = append(body, make([]byte, min(got, n-got))...)
	}
}
