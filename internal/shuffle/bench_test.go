package shuffle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
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

// benchPuts times fill, one container lifetime of puts Puts on a manager it
// warms first, and reports ns/put.
func benchPuts(b *testing.B, puts int, fill func()) {
	fill() // warm the page pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(puts), "ns/put")
}

// BenchmarkDecaGroupPutLarge is DecaGroupPut past the caches: 2 M values
// over 500 k keys in random order (a 12 MiB table, ~60 MiB of pages), so
// slot, key record and chain tail are each a memory miss.
func BenchmarkDecaGroupPutLarge(b *testing.B) {
	const puts, keys = 2_000_000, 500_000
	rng := rand.New(rand.NewSource(1))
	ks := make([]int64, puts)
	for i := range ks {
		ks[i] = rng.Int63n(keys)
	}
	m := memory.NewManager(1<<20, 0)
	fill := func() {
		buf := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
		for i, k := range ks {
			buf.Put(k, int64(i))
		}
		if buf.Values() != puts {
			b.Fatalf("%d values, want %d", buf.Values(), puts)
		}
		buf.Release()
	}
	benchPuts(b, puts, fill)
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

// The two halves of a ReduceByKey exchange at the buffer level, in the
// benchmark workloads' shapes: a map task's fill (200 k puts) and a reduce
// task's stage + fold of four such map outputs into one merged buffer.
// DecaAgg[string, int64] is WordCount (8-character words, ~114 k distinct
// per fill), DecaAgg[int64, float64] is PageRank's contribution sum.

const aggShapePuts = 200_000

func wordCountKeys(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, aggShapePuts)
	for i := range keys {
		keys[i] = fmt.Sprintf("w%07d", rng.Intn(160_000))
	}
	return keys
}

func pageRankKeys(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, aggShapePuts)
	for i := range keys {
		keys[i] = rng.Int63n(35_000)
	}
	return keys
}

func fillAgg[K comparable, V any](b *testing.B, m *memory.Manager, kc decompose.Codec[K], vc decompose.Codec[V],
	add func(V, V) V, keys []K, one V) *DecaAgg[K, V] {
	buf, err := NewDecaAgg(m, add, kc, vc, "")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		buf.Put(k, one)
	}
	return buf
}

func benchAggFill[K comparable, V any](b *testing.B, kc decompose.Codec[K], vc decompose.Codec[V],
	add func(V, V) V, keys []K, one V) {
	m := memory.NewManager(1<<20, 0)
	fillAgg(b, m, kc, vc, add, keys, one).Release() // warm the page pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillAgg(b, m, kc, vc, add, keys, one).Release()
	}
}

func BenchmarkDecaAggFill(b *testing.B) {
	b.Run("string-int64", func(b *testing.B) { benchAggFill(b, str, i64, addI, wordCountKeys(1), 1) })
	b.Run("int64-float64", func(b *testing.B) { benchAggFill(b, i64, f64, addF, pageRankKeys(1), 0.5) })
	b.Run("wc-map-task", benchWCMapTask)
}

// benchWCMapTask is one map task of bench/e2e's wc-shuffle: 800 k words
// drawn from 640 k keys, routed over 4 reducer buffers by the partitioner's
// hash — a 32 MiB working set of tables and pages, where every probe misses.
func benchWCMapTask(b *testing.B) {
	const puts, distinct, reducers = 800_000, 640_000, 4
	rng := rand.New(rand.NewSource(1))
	words := make([]string, puts)
	for i := range words {
		words[i] = fmt.Sprintf("w%07x", rng.Intn(distinct))
	}
	m, hash := memory.NewManager(1<<20, 0), StringKey().Hash
	fill := func() {
		var bufs [reducers]*DecaAgg[string, int64]
		for r := range bufs {
			buf, err := NewDecaAgg(m, addI, str, i64, "")
			if err != nil {
				b.Fatal(err)
			}
			bufs[r] = buf
		}
		for _, w := range words {
			bufs[Partition(hash(w), reducers)].Put(w, 1)
		}
		for _, buf := range bufs {
			buf.Release()
		}
	}
	benchPuts(b, puts, fill)
}

// BenchmarkAggIndexGrow is the index alone growing from empty under 2^18
// inserts of distinct tags — a 6 MiB table, 16 segments — on a manager the
// previous lifetime left its slabs with (warm) and on a new one (cold). B/op
// is what growing takes from the heap: cold the final table plus a segment
// and the small tables before the first split (a doubling series took twice
// the final table), warm the directory past the container's own.
func BenchmarkAggIndexGrow(b *testing.B) {
	const inserts = 1 << 18
	tags := make([]uint32, inserts)
	for i := range tags {
		tags[i] = hashKey(binary.LittleEndian.AppendUint64(nil, uint64(i)))
	}
	grow := func(m *memory.Manager) {
		ix := aggIndex{mem: m}
		ix.insert(0, tags[0], memory.Ptr{})
		for _, tag := range tags[1:] {
			ix.insert(ix.free(tag), tag, memory.Ptr{})
		}
		ix.release()
	}
	warm := memory.NewManager(1<<20, 0)
	b.Run("warm", func(b *testing.B) { benchPuts(b, inserts, func() { grow(warm) }) })
	b.Run("cold", func(b *testing.B) { benchPuts(b, inserts, func() { grow(memory.NewManager(1<<20, 0)) }) })
}

func benchAggStageFold[K comparable, V any](b *testing.B, kc decompose.Codec[K], vc decompose.Codec[V],
	add func(V, V) V, keys func(seed int64) []K, one V) {
	m := memory.NewManager(1<<20, 0)
	var frames [4][]byte
	for s := range frames {
		frames[s] = encodeFrame(b, fillAgg(b, memory.NewManager(1<<20, 0), kc, vc, add, keys(int64(s+1)), one))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged, err := NewDecaAgg(m, add, kc, vc, "")
		if err != nil {
			b.Fatal(err)
		}
		for _, frame := range frames {
			st, err := Stage(bytes.NewReader(frame), m, "")
			if err != nil {
				b.Fatal(err)
			}
			if err := merged.Fold(st); err != nil {
				b.Fatal(err)
			}
		}
		merged.Release()
	}
}

func BenchmarkDecaAggStageFold(b *testing.B) {
	b.Run("string-int64", func(b *testing.B) { benchAggStageFold(b, str, i64, addI, wordCountKeys, 1) })
	b.Run("int64-float64", func(b *testing.B) { benchAggStageFold(b, i64, f64, addF, pageRankKeys, 0.5) })
}
