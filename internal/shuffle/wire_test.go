package shuffle

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
)

func drainAggMap[K comparable, V any](t *testing.T, b interface {
	Drain(func(K, V) bool) error
}) map[K]V {
	t.Helper()
	out := map[K]V{}
	if err := b.Drain(func(k K, v V) bool { out[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecaAggWireRoundTrip(t *testing.T) {
	srcMem := memory.NewManager(256, 0)
	dir := t.TempDir()
	add := func(a, b int64) int64 { return a + b }
	b, err := NewDecaAgg[int64, int64](srcMem, add, decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		b.Put(i%37, i)
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 500; i++ {
		b.Put(i%41, 1)
	}
	want := drainAggMap[int64, int64](t, b)
	// Drain folded the spill back in; spill again so the frame carries a
	// run, then rebuild the expectation.
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		b.Put(i, 2)
		want[i] += 2
	}

	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		t.Fatal(err)
	}

	dstMem := memory.NewManager(4096, 0)
	got, err := DecodeDecaAgg[int64, int64](bytes.NewReader(frame.Bytes()), dstMem, add,
		decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if dstMem.Counters()[obs.PageBytesInUse] == 0 {
		t.Error("decoded buffer holds no pages in the destination manager")
	}
	if gotMap := drainAggMap[int64, int64](t, got); !reflect.DeepEqual(gotMap, want) {
		t.Error("decoded DecaAgg drains differently from the source")
	}
	got.Release()
	b.Release()
	if dstMem.Counters()[obs.PageBytesInUse] != 0 || srcMem.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("leaked pages: src=%d dst=%d", srcMem.Counters()[obs.PageBytesInUse], dstMem.Counters()[obs.PageBytesInUse])
	}
	if st := dstMem.Counters(); st[obs.PageGroupsLive] != 0 {
		t.Errorf("destination live groups = %d", st[obs.PageGroupsLive])
	}
}

func TestDecaGroupWireRoundTrip(t *testing.T) {
	srcMem := memory.NewManager(256, 0)
	dir := t.TempDir()
	b := NewDecaGroup[int64, int64](srcMem, decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	for i := int64(0); i < 400; i++ {
		b.Put(i%13, i)
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		b.Put(i%7, -i)
	}

	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		t.Fatal(err)
	}
	dstMem := memory.NewManager(1024, 0)
	got, err := DecodeDecaGroup[int64, int64](bytes.NewReader(frame.Bytes()), dstMem,
		decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	if err != nil {
		t.Fatal(err)
	}

	collect := func(g *DecaGroup[int64, int64]) map[int64][]int64 {
		out := map[int64][]int64{}
		if err := g.Drain(func(k int64, vs []int64) bool {
			cp := append([]int64(nil), vs...)
			sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
			out[k] = cp
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if wantM, gotM := collect(b), collect(got); !reflect.DeepEqual(gotM, wantM) {
		t.Error("decoded DecaGroup drains differently from the source")
	}
	if got.Values() != b.Values() {
		t.Errorf("decoded value count %d, want %d", got.Values(), b.Values())
	}
	got.Release()
	b.Release()
	if dstMem.Counters()[obs.PageBytesInUse] != 0 || srcMem.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("leaked pages: src=%d dst=%d", srcMem.Counters()[obs.PageBytesInUse], dstMem.Counters()[obs.PageBytesInUse])
	}
}

// TestWireKindMismatch: a frame handed to the wrong decoder errors
// instead of misparsing.
func TestWireKindMismatch(t *testing.T) {
	mem := memory.NewManager(256, 0)
	add := func(a, b int64) int64 { return a + b }
	b, err := NewDecaAgg[int64, int64](mem, add, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	b.Put(1, 2)
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		t.Fatal(err)
	}
	b.Release()
	if _, err := DecodeDecaGroup[int64, int64](bytes.NewReader(frame.Bytes()), mem,
		decompose.Int64Codec{}, decompose.Int64Codec{}, ""); err == nil {
		t.Error("DecaAgg frame decoded as DecaGroup without error")
	}
	if mem.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("leaked %d bytes", mem.Counters()[obs.PageBytesInUse])
	}
}

// TestWireTruncation: truncated frames error cleanly and leak nothing.
func TestWireTruncation(t *testing.T) {
	mem := memory.NewManager(256, 0)
	dir := t.TempDir()
	add := func(a, b int64) int64 { return a + b }
	b, err := NewDecaAgg[int64, int64](mem, add, decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		b.Put(i%29, i)
	}
	if err := b.Spill(); err != nil {
		t.Fatal(err)
	}
	b.Put(3, 4)
	var frame bytes.Buffer
	if err := b.EncodeWire(&frame); err != nil {
		t.Fatal(err)
	}
	b.Release()

	full := frame.Bytes()
	for cut := 0; cut < len(full); cut += 11 {
		if _, err := DecodeDecaAgg[int64, int64](bytes.NewReader(full[:cut]), mem, add,
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
	if mem.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("truncated decodes leaked %d bytes", mem.Counters()[obs.PageBytesInUse])
	}
	if st := mem.Counters(); st[obs.PageGroupsLive] != 0 {
		t.Errorf("truncated decodes leaked %d groups", st[obs.PageGroupsLive])
	}
}
