package shuffle

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
)

// mergeCase is one run of the merge properties: whether sources carry
// spill runs, and how far apart their key ranges start (32: neighbours
// collide on half their keys; 64: disjoint).
type mergeCase struct {
	spill  bool
	stride int64
}

var mergeCases = []mergeCase{{false, 32}, {true, 32}, {false, 64}, {true, 64}}

// aggSources builds n DecaAgg sources — the first one empty — where source
// s holds the 64 keys from s*stride up.
func aggSources(t *testing.T, m *memory.Manager, n int, c mergeCase, dir string) []*DecaAgg[int64, int64] {
	t.Helper()
	spill, stride := c.spill, c.stride
	var out []*DecaAgg[int64, int64]
	for s := -1; s < n; s++ {
		b, err := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 64 && s >= 0; i++ {
			b.Put(int64(s)*stride+i, i+1)
		}
		if spill && s%2 == 0 {
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 16; i++ {
				b.Put(int64(s)*stride+i, 100)
			}
		}
		out = append(out, b)
	}
	return out
}

// stageFrom ships src across the wire — encode, release, stage into m —
// the way a reduce task's fetch worker receives a map output.
func stageFrom(t *testing.T, src frameBuffer, stage func(r WireReader) (*Staged, error)) *Staged {
	t.Helper()
	st, err := stage(bytes.NewReader(encodeFrame(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDecaAggMergeFromMatchesDrainMerge(t *testing.T) {
	for _, mc := range mergeCases {
		m := memory.NewManager(512, 0)
		dir := t.TempDir()

		zc, err := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range aggSources(t, m, 4, mc, dir) {
			if err := zc.MergeFrom(src); err != nil {
				t.Fatal(err)
			}
			src.Release()
		}

		base, err := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range aggSources(t, m, 4, mc, dir) {
			if err := src.Drain(func(k, v int64) bool { base.Put(k, v); return true }); err != nil {
				t.Fatal(err)
			}
			src.Release()
		}

		// Third arm: every source crosses the wire and is staged + folded.
		sf, err := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range aggSources(t, m, 4, mc, dir) {
			st := stageFrom(t, src, func(r WireReader) (*Staged, error) { return Stage(r, m, dir) })
			if err := sf.Fold(st); err != nil {
				t.Fatal(err)
			}
		}

		// Fourth arm: a merged buffer is itself a source. Its pages hold the
		// records the merges combined away, marked dead; both the page walk
		// of a further MergeFrom and the table-free frame must skip them.
		newAgg := func() *DecaAgg[int64, int64] {
			b, err := NewDecaAgg[int64, int64](m, addI, i64, i64, dir)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		mm, half := newAgg(), newAgg()
		for i, src := range aggSources(t, m, 4, mc, dir) {
			dst := mm
			if i < 3 {
				dst = half
			}
			if err := dst.MergeFrom(src); err != nil {
				t.Fatal(err)
			}
			src.Release()
		}
		if err := mm.MergeFrom(half); err != nil {
			t.Fatal(err)
		}
		half.Release()
		var frame bytes.Buffer
		if err := mm.EncodeWire(&frame); err != nil {
			t.Fatal(err)
		}
		shipped, err := DecodeDecaAgg[int64, int64](&frame, m, addI, i64, i64, dir)
		if err != nil {
			t.Fatalf("%+v: decoding a merged buffer's frame: %v", mc, err)
		}

		got := drainAggToMap[int64, int64](t, zc)
		want := drainAggToMap[int64, int64](t, base)
		for what, b := range map[string]*DecaAgg[int64, int64]{"merge of merges": mm, "its frame": shipped} {
			if again := drainAggToMap[int64, int64](t, b); !reflect.DeepEqual(again, want) {
				t.Errorf("%+v: %s = %v records, drain merge = %v records, maps differ", mc, what, len(again), len(want))
			}
			b.Release()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: zero-copy merge = %v records, drain merge = %v records, maps differ",
				mc, len(got), len(want))
		}
		if folded := drainAggToMap[int64, int64](t, sf); !reflect.DeepEqual(folded, want) {
			t.Errorf("%+v: stage+fold = %v records, drain merge = %v records, maps differ",
				mc, len(folded), len(want))
		}
		zc.Release()
		base.Release()
		sf.Release()
		assertClean(t, m, dir, fmt.Sprintf("%+v", mc))
	}
}

// groupSources builds n DecaGroup sources — the first one empty — of 12
// keys each: the same 12 at stride 32, 12 of their own at stride 64.
func groupSources(t *testing.T, m *memory.Manager, n int, c mergeCase, dir string) []*DecaGroup[int64, string] {
	t.Helper()
	spill := c.spill
	var out []*DecaGroup[int64, string]
	for s := -1; s < n; s++ {
		b := NewDecaGroup[int64, string](m, decompose.Int64Codec{}, decompose.StringCodec{}, dir)
		for i := 0; i < 48 && s >= 0; i++ {
			b.Put(int64(i%12)+int64(s)*(c.stride-32), string(rune('a'+s))+string(rune('0'+i%10)))
		}
		if spill && s%2 == 1 {
			if err := b.Spill(); err != nil {
				t.Fatal(err)
			}
			b.Put(int64(s), "post-spill")
		}
		out = append(out, b)
	}
	return out
}

func drainGroupToMap(t *testing.T, b *DecaGroup[int64, string]) map[int64][]string {
	t.Helper()
	out := make(map[int64][]string)
	if err := b.Drain(func(k int64, vs []string) bool {
		cp := append([]string(nil), vs...)
		sort.Strings(cp)
		out[k] = cp
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDecaGroupMergeFromMatchesDrainMerge(t *testing.T) {
	for _, mc := range mergeCases {
		m := memory.NewManager(512, 0)
		dir := t.TempDir()

		zc := NewDecaGroup[int64, string](m, decompose.Int64Codec{}, decompose.StringCodec{}, dir)
		for _, src := range groupSources(t, m, 4, mc, dir) {
			if err := zc.MergeFrom(src); err != nil {
				t.Fatal(err)
			}
			src.Release()
		}

		base := NewDecaGroup[int64, string](m, decompose.Int64Codec{}, decompose.StringCodec{}, dir)
		for _, src := range groupSources(t, m, 4, mc, dir) {
			if err := src.Drain(func(k int64, vs []string) bool {
				for _, v := range vs {
					base.Put(k, v)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			src.Release()
		}

		sf := NewDecaGroup[int64, string](m, decompose.Int64Codec{}, decompose.StringCodec{}, dir)
		for _, src := range groupSources(t, m, 4, mc, dir) {
			st := stageFrom(t, src, func(r WireReader) (*Staged, error) { return Stage(r, m, dir) })
			if err := sf.Fold(st); err != nil {
				t.Fatal(err)
			}
		}

		got := drainGroupToMap(t, zc)
		want := drainGroupToMap(t, base)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: zero-copy group merge differs from drain merge", mc)
		}
		if folded := drainGroupToMap(t, sf); !reflect.DeepEqual(folded, want) {
			t.Errorf("%+v: stage+fold group merge differs from drain merge", mc)
		}
		if zc.Values() != base.Values() || sf.Values() != base.Values() {
			t.Errorf("%+v: value counts %d (merge) / %d (fold) != %d", mc, zc.Values(), sf.Values(), base.Values())
		}
		zc.Release()
		base.Release()
		sf.Release()
		assertClean(t, m, dir, fmt.Sprintf("%+v", mc))
	}
}

// TestMergeFromRefcounts pins the dependency-retention semantics: the
// source group survives the source buffer's Release because the merged
// buffer holds a dep, pages free exactly once when the merged buffer
// releases, and releasing the source again still panics.
func TestMergeFromRefcounts(t *testing.T) {
	m := memory.NewManager(512, 0)
	dst, err := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
		decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
		decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		src.Put(i, i)
	}
	if err := dst.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	if refs := src.group.Refs(); refs != 2 {
		t.Fatalf("source group refs = %d after merge, want 2", refs)
	}
	inUse, srcSlab, parked := m.Counters()[obs.PageBytesInUse], src.idx.footprint(), memory.ReserveBytes()
	if want := dst.SizeBytes() + srcSlab; inUse != want {
		t.Errorf("InUse = %d after merge, want %d: the adopted pages and two index slabs, each once", inUse, want)
	}
	releasedBefore := m.Counters()[obs.PagesReleased]

	src.Release()
	src.Release() // the slab goes back once
	if refs := src.group.Refs(); refs != 1 {
		t.Fatalf("source group refs = %d after source release, want 1 (dep)", refs)
	}
	if got := m.Counters()[obs.PageBytesInUse]; got != inUse-srcSlab {
		t.Errorf("source release must free its index slab (%d bytes) and no dep-retained page: InUse %d -> %d", srcSlab, inUse, got)
	}
	// The merged buffer still reads the adopted segments.
	got := drainAggToMap[int64, int64](t, dst)
	if len(got) != 100 || got[42] != 42 {
		t.Fatalf("merged drain after source release = %d records (got[42]=%d)", len(got), got[42])
	}

	dst.Release()
	if got := m.Counters()[obs.PageBytesInUse]; got != 0 {
		t.Errorf("InUse = %d after merged release", got)
	}
	if m.Counters()[obs.PageGroupsLive] != 0 {
		t.Errorf("live groups = %d after merged release", m.Counters()[obs.PageGroupsLive])
	}
	// Everything goes back to the reserve, the two 3 KiB tables (six
	// pages' worth each) included, each rounded up to whole OS pages.
	if st := m.Counters(); st[obs.PagesReleased] == releasedBefore || memory.ReserveBytes() < parked+inUse {
		t.Errorf("merged release returned %d pages and slabs, the reserve parks %d bytes; want every page of the %d bytes in use back beside the %d parked before",
			st[obs.PagesReleased]-releasedBefore, memory.ReserveBytes(), inUse, parked)
	}

	defer func() {
		if recover() == nil {
			t.Error("expected panic on over-releasing the source group")
		}
	}()
	src.group.Release()
}
