package shuffle

import (
	"testing"

	"deca/internal/decompose"
	"deca/internal/memory"
)

// The core §4.3.2 comparison at the buffer level: eager combining with
// boxed values (a fresh allocation per combine) vs in-place page-segment
// reuse.

func BenchmarkObjectAggCombine(b *testing.B) {
	buf := NewObjectAgg[int64, int64](func(a, c int64) int64 { return a + c },
		ObjectConfig[int64, int64]{})
	defer buf.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Put(int64(i&1023), 1)
	}
}

func BenchmarkDecaAggCombine(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	buf, err := NewDecaAgg[int64, int64](m, func(a, c int64) int64 { return a + c },
		decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	if err != nil {
		b.Fatal(err)
	}
	defer buf.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Put(int64(i&1023), 1)
	}
}

func BenchmarkObjectGroupPut(b *testing.B) {
	buf := NewObjectGroup[int64, int64](ObjectConfig[int64, int64]{})
	defer buf.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Put(int64(i&255), int64(i))
	}
}

func BenchmarkDecaGroupPut(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	buf := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	defer buf.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Put(int64(i&255), int64(i))
	}
}

// Reduce-side merge benchmarks: the §6.1 zero-copy claim at the buffer
// level. Each iteration merges M collision-light map outputs into one
// reduce buffer, either by adopting page groups (MergeFrom) or through
// the decode → re-hash → re-encode drain/re-Put baseline.

const (
	mergeSources   = 8
	recsPerSource  = 4096
	mergeKeyStride = recsPerSource // disjoint key ranges: collision-light
)

func buildAggSources(b *testing.B, m *memory.Manager) []*DecaAgg[int64, int64] {
	b.Helper()
	srcs := make([]*DecaAgg[int64, int64], mergeSources)
	for s := range srcs {
		buf, err := NewDecaAgg[int64, int64](m, func(x, y int64) int64 { return x + y },
			decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < recsPerSource; i++ {
			buf.Put(int64(s*mergeKeyStride+i), int64(i))
		}
		srcs[s] = buf
	}
	return srcs
}

func BenchmarkDecaAggMergeZeroCopy(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srcs := buildAggSources(b, m)
		dst, _ := NewDecaAgg[int64, int64](m, func(x, y int64) int64 { return x + y },
			decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		b.StartTimer()
		for _, src := range srcs {
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
			src.Release()
		}
		b.StopTimer()
		dst.Release()
		b.StartTimer()
	}
}

func BenchmarkDecaAggMergeDrain(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srcs := buildAggSources(b, m)
		dst, _ := NewDecaAgg[int64, int64](m, func(x, y int64) int64 { return x + y },
			decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		b.StartTimer()
		for _, src := range srcs {
			if err := src.Drain(func(k, v int64) bool { dst.Put(k, v); return true }); err != nil {
				b.Fatal(err)
			}
			src.Release()
		}
		b.StopTimer()
		dst.Release()
		b.StartTimer()
	}
}

func buildGroupSources(b *testing.B, m *memory.Manager) []*DecaGroup[int64, int64] {
	b.Helper()
	srcs := make([]*DecaGroup[int64, int64], mergeSources)
	for s := range srcs {
		buf := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		for i := 0; i < recsPerSource; i++ {
			// PageRank-groupBy shape: many values per key, keys mostly
			// unique to one map output.
			buf.Put(int64(s*64+i%64), int64(i))
		}
		srcs[s] = buf
	}
	return srcs
}

func BenchmarkDecaGroupMergeZeroCopy(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srcs := buildGroupSources(b, m)
		dst := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		b.StartTimer()
		for _, src := range srcs {
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
			src.Release()
		}
		b.StopTimer()
		dst.Release()
		b.StartTimer()
	}
}

func BenchmarkDecaGroupMergeDrain(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srcs := buildGroupSources(b, m)
		dst := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		b.StartTimer()
		for _, src := range srcs {
			if err := src.Drain(func(k int64, vs []int64) bool {
				for _, v := range vs {
					dst.Put(k, v)
				}
				return true
			}); err != nil {
				b.Fatal(err)
			}
			src.Release()
		}
		b.StopTimer()
		dst.Release()
		b.StartTimer()
	}
}

// The sort benchmarks time merge *plus* a full DrainSorted of the merged
// buffer: the zero-copy merge defers all sorting to the first drain, so
// merge-only timing would compare unequal amounts of work (the hash-
// shaped benchmarks above have no such asymmetry — both strategies leave
// an equivalent fully-merged state).

func BenchmarkDecaSortMergeZeroCopy(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	less := func(x, y int64) bool { return x < y }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srcs := make([]*DecaSort[int64, int64], mergeSources)
		for s := range srcs {
			srcs[s] = NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
			for j := 0; j < recsPerSource; j++ {
				srcs[s].Put(int64((j*2654435761)%recsPerSource), int64(j))
			}
		}
		dst := NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		b.StartTimer()
		for _, src := range srcs {
			if err := dst.MergeFrom(src); err != nil {
				b.Fatal(err)
			}
			src.Release()
		}
		if err := dst.DrainSorted(func(int64, int64) bool { return true }); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		dst.Release()
		b.StartTimer()
	}
}

func BenchmarkDecaSortMergeDrain(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	less := func(x, y int64) bool { return x < y }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srcs := make([]*DecaSort[int64, int64], mergeSources)
		for s := range srcs {
			srcs[s] = NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
			for j := 0; j < recsPerSource; j++ {
				srcs[s].Put(int64((j*2654435761)%recsPerSource), int64(j))
			}
		}
		dst := NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		b.StartTimer()
		for _, src := range srcs {
			if err := src.DrainSorted(func(k, v int64) bool { dst.Put(k, v); return true }); err != nil {
				b.Fatal(err)
			}
			src.Release()
		}
		if err := dst.DrainSorted(func(int64, int64) bool { return true }); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		dst.Release()
		b.StartTimer()
	}
}

func BenchmarkObjectSortDrain(b *testing.B) {
	less := func(x, y int64) bool { return x < y }
	const n = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := NewObjectSort[int64, int64](less, ObjectConfig[int64, int64]{})
		for j := 0; j < n; j++ {
			buf.Put(int64((j*2654435761)%n), int64(j))
		}
		b.StartTimer()
		cnt := 0
		if err := buf.DrainSorted(func(int64, int64) bool { cnt++; return true }); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		buf.Release()
		b.StartTimer()
	}
}

func BenchmarkDecaSortDrain(b *testing.B) {
	m := memory.NewManager(1<<20, 0)
	less := func(x, y int64) bool { return x < y }
	const n = 50_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		buf := NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		for j := 0; j < n; j++ {
			buf.Put(int64((j*2654435761)%n), int64(j))
		}
		b.StartTimer()
		cnt := 0
		if err := buf.DrainSorted(func(int64, int64) bool { cnt++; return true }); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		buf.Release()
		b.StartTimer()
	}
}
