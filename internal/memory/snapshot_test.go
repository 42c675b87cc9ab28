package memory

import (
	"bytes"
	"encoding/binary"
	"testing"

	"deca/internal/obs"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := NewManager(128, 0)
	g := src.NewGroup()
	var ptrs []Ptr
	var want [][]byte
	for i := 0; i < 40; i++ {
		b := bytes.Repeat([]byte{byte(i)}, 1+i*7%90)
		ptrs = append(ptrs, g.Append(b))
		want = append(want, b)
	}
	// Oversized single object gets a dedicated page.
	big := bytes.Repeat([]byte{0xee}, 500)
	ptrs = append(ptrs, g.Append(big))
	want = append(want, big)

	var buf bytes.Buffer
	n, err := g.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("Snapshot reported %d bytes, wrote %d", n, buf.Len())
	}
	if sz := g.SnapshotSize(); sz != n {
		t.Errorf("SnapshotSize = %d, Snapshot wrote %d", sz, n)
	}

	// Restore into a different manager with a different page size.
	dst := NewManager(4096, 0)
	r, err := dst.RestoreGroup(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != g.NumPages() || r.Len() != g.Len() {
		t.Fatalf("restored %d pages / %d bytes, want %d / %d",
			r.NumPages(), r.Len(), g.NumPages(), g.Len())
	}
	// Every source pointer addresses the identical segment in the restored
	// group: page boundaries survive the wire.
	for i, ptr := range ptrs {
		if got := r.Bytes(ptr, len(want[i])); !bytes.Equal(got, want[i]) {
			t.Fatalf("segment %d at %v differs after restore", i, ptr)
		}
	}
	// Accounting: the restored pages are charged to dst, released on
	// Release, and dst goes back to zero.
	if dst.Counters()[obs.PageBytesInUse] == 0 {
		t.Error("restore charged no bytes to the destination manager")
	}
	r.Release()
	if dst.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("destination manager still charges %d bytes after release", dst.Counters()[obs.PageBytesInUse])
	}
	if st := dst.Counters(); st[obs.PageGroupsLive] != 0 {
		t.Errorf("destination has %d live groups after release", st[obs.PageGroupsLive])
	}
	g.Release()
	if src.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("source manager still charges %d bytes", src.Counters()[obs.PageBytesInUse])
	}
}

func TestSnapshotEmptyGroup(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := m.RestoreGroup(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 0 || r.Len() != 0 {
		t.Errorf("restored empty group has %d pages / %d bytes", r.NumPages(), r.Len())
	}
	r.Release()
}

// TestRestoreEmptyPagesTakeNoPoolPages: a page header costs the manager
// no more bytes than it announces. Snapshot can emit an empty page (a
// zero-byte Alloc opens one), so RestoreGroup must keep its index slot —
// later pages' Ptrs count it — but a frame of nothing but empty-page
// headers, one byte each, must not turn into a page apiece.
func TestRestoreEmptyPagesTakeNoPoolPages(t *testing.T) {
	src := NewManager(64, 0)
	g := src.NewGroup()
	g.Alloc(0) // opens page 0; the payload does not fit it, so it stays empty
	payload := bytes.Repeat([]byte{7}, 100)
	ptr := g.Append(payload)
	if ptr.Page != 1 {
		t.Fatalf("setup: payload landed on page %d, want 1 (after the empty page)", ptr.Page)
	}
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g.Release()

	dst := NewManager(64, 0)
	r, err := dst.RestoreGroup(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPages() != 2 || !bytes.Equal(r.Bytes(ptr, len(payload)), payload) {
		t.Errorf("restored group has %d pages; the source's Ptr no longer addresses its bytes", r.NumPages())
	}
	if in := dst.Counters()[obs.PageBytesInUse]; in != int64(len(payload)) {
		t.Errorf("restore charges %d bytes for one %d-byte page and one empty one", in, len(payload))
	}
	r.Release()

	// The hostile form: 100k page headers announcing zero bytes each.
	hostile := append(binary.AppendUvarint(nil, 100_000), make([]byte, 100_000)...)
	r, err = dst.RestoreGroup(bytes.NewReader(hostile))
	if err != nil {
		t.Fatal(err)
	}
	if in, fp := dst.Counters()[obs.PageBytesInUse], r.Footprint(); in != 0 || fp != 0 {
		t.Errorf("100k empty pages charge %d manager bytes (footprint %d), want 0", in, fp)
	}
	r.Release()
	if st := dst.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageGroupsLive] != 0 || st[obs.PagesAllocated]+st[obs.PagesReused] != st[obs.PagesReleased] {
		t.Errorf("manager not settled after releases: %+v", st)
	}
}

func TestRestoreGroupTruncatedAndCorrupt(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	g.Append(bytes.Repeat([]byte{1}, 50))
	g.Append(bytes.Repeat([]byte{2}, 50))
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g.Release()

	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := m.RestoreGroup(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes restored without error", cut, len(full))
		}
	}
	// Implausible page count must be rejected before allocating.
	if _, err := m.RestoreGroup(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})); err == nil {
		t.Error("corrupt page count restored without error")
	}
	if m.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("failed restores leaked %d bytes", m.Counters()[obs.PageBytesInUse])
	}
	if st := m.Counters(); st[obs.PageGroupsLive] != 0 {
		t.Errorf("failed restores leaked %d live groups", st[obs.PageGroupsLive])
	}
}

// TestSnapshotAfterAdoption: a group that adopted pages snapshots its full
// logical page array (owned + adopted) and restores as a plain owned group.
func TestSnapshotAfterAdoption(t *testing.T) {
	m := NewManager(64, 0)
	a := m.NewGroup()
	pa := a.Append([]byte("alpha"))
	b := m.NewGroup()
	pb := b.Append([]byte("bravo"))
	base := a.AdoptPages(b)
	b.Release()

	var buf bytes.Buffer
	if _, err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := m.RestoreGroup(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(r.Bytes(pa, 5)); got != "alpha" {
		t.Errorf("owned segment = %q", got)
	}
	if got := string(r.Bytes(pb.Rebase(base), 5)); got != "bravo" {
		t.Errorf("adopted segment = %q", got)
	}
	r.Release()
	a.Release()
	if m.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("leaked %d bytes", m.Counters()[obs.PageBytesInUse])
	}
}

// TestRestoreOversizedPageRoundTrip: a page larger than the destination's
// page size — an oversized single object — is read through the growing
// buffer (here 64 → 128 → 197 bytes) and lands bit-identical in one page,
// charged and released like any other; cut anywhere, it fails clean.
func TestRestoreOversizedPageRoundTrip(t *testing.T) {
	m := NewManager(64, 0)
	g := m.NewGroup()
	big := make([]byte, 3*64+5)
	for i := range big {
		big[i] = byte(i * 31)
	}
	small := g.Append([]byte("before"))
	at := g.Append(big)
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g.Release()

	r, err := m.RestoreGroup(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Bytes(at, len(big)); !bytes.Equal(got, big) {
		t.Error("oversized page differs after restore")
	}
	if got := r.Bytes(small, 6); string(got) != "before" {
		t.Errorf("page before the oversized one = %q", got)
	}
	r.Release()
	for cut := 0; cut < buf.Len(); cut += 5 {
		if _, err := m.RestoreGroup(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes restored without error", cut, buf.Len())
		}
	}
	if st := m.Counters(); st[obs.PageBytesInUse] != 0 || st[obs.PageGroupsLive] != 0 {
		t.Errorf("manager not settled: %+v", st)
	}
}
