package memory

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// spillBytes is the group in the raw spill format.
func spillBytes(t testing.TB, g *Group) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, buf.Len())
	}
	return buf.Bytes()
}

// spillFile writes data to a fresh file and returns its path.
func spillFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spill.bin")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMapGroupRoundTrip: pointers minted before the spill resolve to the
// same bytes in the mapping, which costs the manager nothing and is gone
// with the group's last reference.
func TestMapGroupRoundTrip(t *testing.T) {
	m := NewManager(16, 0)
	g := m.NewGroup()
	var ptrs []Ptr
	var want [][]byte
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		b := make([]byte, 1+r.Intn(24))
		r.Read(b)
		ptrs = append(ptrs, g.Append(b))
		want = append(want, b)
	}
	pages, length := g.NumPages(), g.Len()
	path := spillFile(t, spillBytes(t, g))
	g.Release()
	before := m.Stats()

	g2, err := MapGroup(m, path)
	if err != nil {
		t.Fatal(err)
	}
	// The file's name is the caller's: the mapping holds the bytes.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if g2.NumPages() != pages || g2.Len() != length || g2.Footprint() != 0 {
		t.Errorf("mapped group: %d pages, %d bytes, footprint %d; want %d, %d, 0", g2.NumPages(), g2.Len(), g2.Footprint(), pages, length)
	}
	for i, p := range ptrs {
		if got := g2.Bytes(p, len(want[i])); !bytes.Equal(got, want[i]) {
			t.Fatalf("segment %d mismatch in the mapping", i)
		}
	}
	g2.Retain()
	g2.Release()
	if got := g2.Bytes(ptrs[0], len(want[0])); !bytes.Equal(got, want[0]) {
		t.Fatal("the mapping went with a reference that was not the last")
	}
	if st := m.Stats(); st.BytesInUse != before.BytesInUse || st.BytesPooled != before.BytesPooled || st.LiveGroups != 1 {
		t.Errorf("a mapped group moved the manager's bytes: %+v, before %+v", st, before)
	}
	g2.Release()
	if st := m.Stats(); st != before {
		t.Errorf("stats after the release %+v, want %+v", st, before)
	}
}

// TestMappedGroupIsSealed: nothing allocates into a mapping, and adopting
// one — across managers too — charges nobody for its pages.
func TestMappedGroupIsSealed(t *testing.T) {
	m, other := NewManager(64, 0), NewManager(64, 0)
	g := m.NewGroup()
	ptr := g.Append([]byte("mapped bytes"))
	path := spillFile(t, spillBytes(t, g))
	g.Release()
	mapped, err := MapGroup(m, path)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Alloc on a mapped group did not panic")
			}
		}()
		mapped.Alloc(1)
	}()

	dst := other.NewGroup()
	base := dst.AdoptPages(mapped)
	mapped.Release() // dst's dependency keeps the mapping
	if got := dst.Bytes(ptr.Rebase(base), 12); string(got) != "mapped bytes" {
		t.Errorf("adopted mapped page reads %q", got)
	}
	if m.InUse() != 0 || other.InUse() != 0 {
		t.Errorf("in use after adopting a mapping: %d and %d, want 0", m.InUse(), other.InUse())
	}
	dst.Release()
	for _, mgr := range []*Manager{m, other} {
		if st := mgr.Stats(); st.LiveGroups != 0 || st.BytesInUse != 0 {
			t.Errorf("left behind: %+v", st)
		}
	}
}

// spillOf is a well-formed spill file of pages of the given lengths.
func spillOf(t testing.TB, lens ...int) []byte {
	t.Helper()
	g := NewManager(0, 0).NewGroup()
	for i, n := range lens {
		g.pages = append(g.pages, bytes.Repeat([]byte{byte(i + 1)}, n))
	}
	defer func() {
		g.pages = nil // the test's own bytes, not the manager's
		g.Release()
	}()
	return spillBytes(t, g)
}

// spillSeeds are well-formed spill files: 0, 1 and 7 pages, with page
// lengths 13 (padded), 88 (a whole number of words) and a full page.
func spillSeeds(t testing.TB) [][]byte {
	const page = 256
	return [][]byte{
		spillOf(t), spillOf(t, 13), spillOf(t, 88), spillOf(t, page),
		spillOf(t, 88, 13, page, 0, 1, page, 88),
	}
}

// checkMapped maps data as a spill file. Whatever the bytes, MapGroup
// either refuses or returns a group every byte of which can be read, laid
// out as the header says and inside the file; nothing stays behind.
func checkMapped(t *testing.T, data []byte) (ok bool) {
	t.Helper()
	m := NewManager(256, 0)
	g, err := MapGroup(m, spillFile(t, data))
	if err == nil {
		ok = true
		// Walk the file as the format lays it out: every page is the
		// header's length, clipped, and holds the file's bytes at its place.
		off, total := 8+4*g.NumPages(), int64(0)
		off += spillPad(off)
		for i := 0; i < g.NumPages(); i++ {
			page := g.Page(i)
			if want := binary.LittleEndian.Uint32(data[8+4*i:]); uint32(len(page)) != want || cap(page) != len(page) {
				t.Errorf("page %d: len %d cap %d, header says %d", i, len(page), cap(page), want)
			}
			if off+len(page) > len(data) || !bytes.Equal(page, data[off:off+len(page)]) {
				t.Fatalf("page %d is not the file's %d bytes at offset %d", i, len(page), off)
			}
			off += len(page) + spillPad(len(page))
			total += int64(len(page))
		}
		if off != len(data) || total != g.Len() {
			t.Errorf("pages end at offset %d of a %d-byte file and hold %d bytes, Len %d", off, len(data), total, g.Len())
		}
		g.Release()
	}
	if st := m.Stats(); st.LiveGroups != 0 || st.BytesInUse != 0 {
		t.Errorf("after MapGroup (err = %v): %+v", err, st)
	}
	return ok
}

// TestMapGroupTrustsNothing: every truncation and every extension of a
// well-formed file is refused, as are a foreign magic and a page count or a
// page length the file has no room for; a flipped bit is refused or yields a
// group that still reads inside the file.
func TestMapGroupTrustsNothing(t *testing.T) {
	for _, seed := range spillSeeds(t) {
		if !checkMapped(t, seed) {
			t.Fatalf("well-formed %d-byte file refused", len(seed))
		}
		for cut := 0; cut < len(seed); cut++ {
			if checkMapped(t, seed[:cut]) {
				t.Errorf("file of %d bytes accepted cut to %d", len(seed), cut)
			}
		}
		for _, extra := range []int{1, 7, 8, 4096} {
			if checkMapped(t, append(bytes.Clone(seed), make([]byte, extra)...)) {
				t.Errorf("file of %d bytes accepted with %d more", len(seed), extra)
			}
		}
		for bit := 0; bit < 8*min(len(seed), 64); bit++ {
			flipped := bytes.Clone(seed)
			flipped[bit/8] ^= 1 << (bit % 8)
			if checkMapped(t, flipped) && bit < 64 {
				t.Errorf("file of %d bytes accepted with header bit %d flipped", len(seed), bit)
			}
		}
	}
	huge := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, spillMagic), 1<<32-1)
	if checkMapped(t, huge) {
		t.Error("a page count of 2^32-1 in an 8-byte file accepted")
	}
	if _, err := MapGroup(NewManager(0, 0), filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("a missing file mapped")
	}
}

func FuzzMapGroup(f *testing.F) {
	for _, seed := range spillSeeds(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(append(bytes.Clone(seed), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkMapped(t, data) })
}
