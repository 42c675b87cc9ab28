package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"deca/internal/decompose"
)

// Property tests pitting the engine's shuffle operators against plain-map
// reference implementations across modes, partition counts and data
// skews.

func TestReduceByKeyProperty(t *testing.T) {
	dir := t.TempDir()
	prop := func(seed int64, keySpace uint8, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		ks := int64(keySpace)%50 + 1
		var pairs []decompose.Pair[int64, int64]
		ref := map[int64]int64{}
		for i := 0; i < int(n)%800; i++ {
			k := r.Int63n(ks)
			v := r.Int63n(1000) - 500
			pairs = append(pairs, KV(k, v))
			ref[k] += v
		}
		for _, mode := range []Mode{ModeSpark, ModeDeca} {
			ctx := New(Config{Parallelism: 2, Mode: mode, PageSize: 1024, SpillDir: dir})
			d := Parallelize(ctx, pairs, 1+int(n)%4)
			red := ReduceByKey(d, int64Ops(1+int(seed)%3), func(a, b int64) int64 { return a + b })
			got, err := CollectMap(red)
			ctx.Close()
			if err != nil {
				return false
			}
			if len(ref) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestJoinProperty(t *testing.T) {
	dir := t.TempDir()
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var left []decompose.Pair[int64, int64]
		var right []decompose.Pair[int64, int64]
		for i := 0; i < 60; i++ {
			left = append(left, KV(r.Int63n(10), r.Int63n(100)))
		}
		for i := 0; i < 40; i++ {
			right = append(right, KV(r.Int63n(10), r.Int63n(100)))
		}
		// Reference inner join.
		type pair struct{ v, w int64 }
		refCount := map[int64][]pair{}
		rightByKey := map[int64][]int64{}
		for _, p := range right {
			rightByKey[p.Key] = append(rightByKey[p.Key], p.Value)
		}
		for _, l := range left {
			for _, w := range rightByKey[l.Key] {
				refCount[l.Key] = append(refCount[l.Key], pair{l.Value, w})
			}
		}

		ctx := New(Config{Parallelism: 2, Mode: ModeSpark, PageSize: 1024, SpillDir: dir})
		defer ctx.Close()
		joined := Join(
			Parallelize(ctx, left, 3),
			Parallelize(ctx, right, 2),
			int64Ops(2), int64Ops(2),
		)
		rows, err := Collect(joined)
		if err != nil {
			return false
		}
		got := map[int64][]pair{}
		for _, row := range rows {
			got[row.Key] = append(got[row.Key], pair{row.Value.Key, row.Value.Value})
		}
		if len(got) != len(refCount) {
			return false
		}
		normalize := func(ps []pair) {
			sort.Slice(ps, func(i, j int) bool {
				if ps[i].v != ps[j].v {
					return ps[i].v < ps[j].v
				}
				return ps[i].w < ps[j].w
			})
		}
		for k, ps := range refCount {
			normalize(ps)
			gps := got[k]
			normalize(gps)
			if !reflect.DeepEqual(ps, gps) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSortByKeyTotalOrderProperty(t *testing.T) {
	// With a single output partition, SortByKey produces a globally
	// sorted sequence equal to the reference sort.
	dir := t.TempDir()
	prop := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		var pairs []decompose.Pair[int64, int64]
		var ref []int64
		for i := 0; i < int(n)%500; i++ {
			k := r.Int63n(100)
			pairs = append(pairs, KV(k, k))
			ref = append(ref, k)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		for _, mode := range []Mode{ModeSpark, ModeDeca} {
			ctx := New(Config{Parallelism: 2, Mode: mode, PageSize: 512, SpillDir: dir})
			d := Parallelize(ctx, pairs, 3)
			sorted := SortByKey(d, int64Ops(1))
			var got []int64
			err := sorted.Iterate(0, func(kv decompose.Pair[int64, int64]) bool {
				got = append(got, kv.Key)
				return true
			})
			ctx.Close()
			if err != nil {
				return false
			}
			if len(got) != len(ref) {
				return false
			}
			for i := range got {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCachedSerializedSwapPath(t *testing.T) {
	// Serialized blocks under a tiny budget must swap and restore through
	// the engine read path.
	ctx := New(Config{
		Parallelism:     2,
		Mode:            ModeSparkSer,
		MemoryBudget:    4 * 1024,
		StorageFraction: 0.5,
		SpillDir:        t.TempDir(),
	})
	defer ctx.Close()
	d := Generate(ctx, 6, func(p int, emit func(int64)) {
		for i := int64(0); i < 100; i++ {
			emit(int64(p)*1000 + i)
		}
	})
	d.Persist(StorageSerialized, Storage[int64]{Ser: serialInt64{}})
	a, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Collect(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("serialized cache changed across swap round trips")
	}
	if ctx.Executors()[0].CacheManager().Stats().Evictions == 0 {
		t.Error("expected evictions under the tiny budget")
	}
}

// serialInt64 avoids importing serial in this file's scope twice.
type serialInt64 struct{}

func (serialInt64) Marshal(dst []byte, v int64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (serialInt64) Unmarshal(src []byte) (int64, int) {
	var v int64
	for i := 7; i >= 0; i-- {
		v = v<<8 | int64(src[i])
	}
	return v, 8
}
