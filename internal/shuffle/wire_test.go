package shuffle

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/serial"
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
	if dstMem.InUse() == 0 {
		t.Error("decoded buffer holds no pages in the destination manager")
	}
	if gotMap := drainAggMap[int64, int64](t, got); !reflect.DeepEqual(gotMap, want) {
		t.Error("decoded DecaAgg drains differently from the source")
	}
	got.Release()
	b.Release()
	if dstMem.InUse() != 0 || srcMem.InUse() != 0 {
		t.Errorf("leaked pages: src=%d dst=%d", srcMem.InUse(), dstMem.InUse())
	}
	if st := dstMem.Stats(); st.LiveGroups != 0 {
		t.Errorf("destination live groups = %d", st.LiveGroups)
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
	if dstMem.InUse() != 0 || srcMem.InUse() != 0 {
		t.Errorf("leaked pages: src=%d dst=%d", srcMem.InUse(), dstMem.InUse())
	}
}

func TestSortWireRoundTrip(t *testing.T) {
	srcMem := memory.NewManager(256, 0)
	dir := t.TempDir()
	less := func(a, b int64) bool { return a < b }

	ds := NewDecaSort[int64, int64](srcMem, less, decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	os := NewObjectSort(less, ObjectConfig[int64, int64]{KeySer: serial.Int64{}, ValSer: serial.Int64{}, SpillDir: dir})
	for i := int64(0); i < 500; i++ {
		k, v := (i*7919)%101, i
		ds.Put(k, v)
		os.Put(k, v)
	}
	if err := ds.Spill(); err != nil {
		t.Fatal(err)
	}
	if err := os.Spill(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		ds.Put(i%11, -i)
		os.Put(i%11, -i)
	}

	collectDeca := func(b *DecaSort[int64, int64]) []decompose.Pair[int64, int64] {
		var out []decompose.Pair[int64, int64]
		if err := b.DrainSorted(func(k, v int64) bool {
			out = append(out, decompose.Pair[int64, int64]{Key: k, Value: v})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	collectObj := func(b *ObjectSort[int64, int64]) []decompose.Pair[int64, int64] {
		var out []decompose.Pair[int64, int64]
		if err := b.DrainSorted(func(k, v int64) bool {
			out = append(out, decompose.Pair[int64, int64]{Key: k, Value: v})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	var dFrame, oFrame bytes.Buffer
	if err := ds.EncodeWire(&dFrame); err != nil {
		t.Fatal(err)
	}
	if err := os.EncodeWire(&oFrame); err != nil {
		t.Fatal(err)
	}

	dstMem := memory.NewManager(1024, 0)
	gd, err := DecodeDecaSort[int64, int64](bytes.NewReader(dFrame.Bytes()), dstMem, less,
		decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	go2, err := DecodeObjectSort[int64, int64](bytes.NewReader(oFrame.Bytes()), less,
		ObjectConfig[int64, int64]{KeySer: serial.Int64{}, ValSer: serial.Int64{}, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(collectDeca(gd), collectDeca(ds)) {
		t.Error("decoded DecaSort drains differently from the source")
	}
	if !reflect.DeepEqual(collectObj(go2), collectObj(os)) {
		t.Error("decoded ObjectSort drains differently from the source")
	}
	gd.Release()
	go2.Release()
	ds.Release()
	os.Release()
	if dstMem.InUse() != 0 || srcMem.InUse() != 0 {
		t.Errorf("leaked pages: src=%d dst=%d", srcMem.InUse(), dstMem.InUse())
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
	if _, err := DecodeDecaSort[int64, int64](bytes.NewReader(frame.Bytes()), mem,
		func(a, b int64) bool { return a < b },
		decompose.Int64Codec{}, decompose.Int64Codec{}, ""); err == nil {
		t.Error("DecaAgg frame decoded as DecaSort without error")
	}
	if mem.InUse() != 0 {
		t.Errorf("leaked %d bytes", mem.InUse())
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
	if mem.InUse() != 0 {
		t.Errorf("truncated decodes leaked %d bytes", mem.InUse())
	}
	if st := mem.Stats(); st.LiveGroups != 0 {
		t.Errorf("truncated decodes leaked %d groups", st.LiveGroups)
	}
}
