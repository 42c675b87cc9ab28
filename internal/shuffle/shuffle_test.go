package shuffle

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/serial"
)

func TestPartitionInRange(t *testing.T) {
	k := StringKey()
	for _, s := range []string{"", "a", "hello", "deca"} {
		p := Partition(k.Hash(s), 7)
		if p < 0 || p >= 7 {
			t.Errorf("Partition(%q) = %d out of range", s, p)
		}
	}
}

func TestInt64KeyHashSpreads(t *testing.T) {
	k := Int64Key()
	counts := make([]int, 8)
	for i := int64(0); i < 8000; i++ {
		counts[Partition(k.Hash(i), 8)]++
	}
	for p, c := range counts {
		if c < 500 || c > 1500 {
			t.Errorf("partition %d got %d of 8000 (badly skewed hash)", p, c)
		}
	}
}

// referenceAgg computes the expected aggregation with a plain map.
func referenceAgg(pairs []decompose.Pair[string, int64]) map[string]int64 {
	ref := make(map[string]int64)
	for _, p := range pairs {
		ref[p.Key] += p.Value
	}
	return ref
}

func drainAggToMap[K comparable, V any](t *testing.T, d interface {
	Drain(func(K, V) bool) error
}) map[K]V {
	t.Helper()
	out := make(map[K]V)
	if err := d.Drain(func(k K, v V) bool {
		out[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestObjectAggMatchesReference(t *testing.T) {
	b := NewObjectAgg[string, int64](func(a, b int64) int64 { return a + b },
		ObjectConfig[string, int64]{})
	defer b.Release()
	pairs := []decompose.Pair[string, int64]{
		{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "a", Value: 3},
		{Key: "c", Value: 5}, {Key: "b", Value: -2},
	}
	for _, p := range pairs {
		b.Put(p.Key, p.Value)
	}
	got := drainAggToMap[string, int64](t, b)
	want := referenceAgg(pairs)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
}

func TestDecaAggMatchesReference(t *testing.T) {
	m := memory.NewManager(128, 0)
	b, err := NewDecaAgg[string, int64](m,
		func(a, b int64) int64 { return a + b },
		decompose.StringCodec{}, decompose.Int64Codec{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	pairs := []decompose.Pair[string, int64]{
		{Key: "a", Value: 1}, {Key: "b", Value: 2}, {Key: "a", Value: 3},
		{Key: "c", Value: 5}, {Key: "b", Value: -2}, {Key: "a", Value: 10},
	}
	for _, p := range pairs {
		b.Put(p.Key, p.Value)
	}
	got := drainAggToMap[string, int64](t, b)
	if !reflect.DeepEqual(got, referenceAgg(pairs)) {
		t.Errorf("got %v", got)
	}
}

func TestDecaAggReusesSegmentInPlace(t *testing.T) {
	// The paper's key optimization (§4.3.2): combining must not grow the
	// page group — the old value's segment is reused.
	m := memory.NewManager(1024, 0)
	b, err := NewDecaAgg[string, int64](m,
		func(a, b int64) int64 { return a + b },
		decompose.StringCodec{}, decompose.Int64Codec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()

	b.Put("k", 1)
	sizeAfterFirst, _ := b.PageOccupancy()
	for i := 0; i < 1000; i++ {
		b.Put("k", 1)
	}
	if size, _ := b.PageOccupancy(); size != sizeAfterFirst {
		t.Errorf("page bytes grew from %d to %d during combining; segment not reused",
			sizeAfterFirst, size)
	}
	got := drainAggToMap[string, int64](t, b)
	if got["k"] != 1001 {
		t.Errorf("aggregate = %d, want 1001", got["k"])
	}
}

func TestDecaAggRejectsVariableValueCodec(t *testing.T) {
	m := memory.NewManager(128, 0)
	_, err := NewDecaAgg[string, string](m,
		func(a, b string) string { return a + b },
		decompose.StringCodec{}, decompose.StringCodec{}, "")
	if err == nil {
		t.Error("variable-size value codec must be rejected (unsafe in-place reuse)")
	}
}

// valueBytes is the raw segment of k's current value in b's pages.
func valueBytes[K comparable, V any](b *DecaAgg[K, V], k K) ([]byte, bool) {
	b.flush()
	key := make([]byte, b.keyCodec.Size(k))
	b.keyCodec.Encode(key, k)
	val, _, ok := b.idx.find(b.group, hashKey(key), key, b.shape[0].tail)
	return val, ok
}

func TestDecaAggValueBytes(t *testing.T) {
	m := memory.NewManager(128, 0)
	b, _ := NewDecaAgg[string, int64](m,
		func(a, b int64) int64 { return a + b },
		decompose.StringCodec{}, decompose.Int64Codec{}, "")
	defer b.Release()
	b.Put("x", 41)
	b.Put("x", 1)
	seg, ok := valueBytes(b, "x")
	if !ok {
		t.Fatal("ValueBytes miss")
	}
	if v := decompose.I64(seg, 0); v != 42 {
		t.Errorf("raw value = %d, want 42", v)
	}
	if _, ok := valueBytes(b, "missing"); ok {
		t.Error("ValueBytes hit on missing key")
	}
}

func TestAggSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pairs := make([]decompose.Pair[string, int64], 0, 600)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 600; i++ {
		pairs = append(pairs, decompose.Pair[string, int64]{
			Key:   string(rune('a' + r.Intn(26))),
			Value: int64(r.Intn(100)),
		})
	}
	want := referenceAgg(pairs)

	obj := NewObjectAgg[string, int64](func(a, b int64) int64 { return a + b },
		ObjectConfig[string, int64]{KeySer: serial.Str{}, ValSer: serial.Int64{}, SpillDir: dir})
	defer obj.Release()
	m := memory.NewManager(128, 0)
	dec, _ := NewDecaAgg[string, int64](m, func(a, b int64) int64 { return a + b },
		decompose.StringCodec{}, decompose.Int64Codec{}, dir)
	defer dec.Release()

	for i, p := range pairs {
		obj.Put(p.Key, p.Value)
		dec.Put(p.Key, p.Value)
		if i%200 == 199 {
			if err := obj.Spill(); err != nil {
				t.Fatal(err)
			}
			if err := dec.Spill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if obj.SpilledBytes() == 0 || dec.SpilledBytes() == 0 {
		t.Fatal("expected spills to occur")
	}
	if got := drainAggToMap[string, int64](t, obj); !reflect.DeepEqual(got, want) {
		t.Errorf("object spill merge: got %v", got)
	}
	if got := drainAggToMap[string, int64](t, dec); !reflect.DeepEqual(got, want) {
		t.Errorf("deca spill merge: got %v", got)
	}
}

func TestObjectAggSpillWithoutSerializers(t *testing.T) {
	b := NewObjectAgg[string, int64](func(a, b int64) int64 { return a + b },
		ObjectConfig[string, int64]{})
	defer b.Release()
	b.Put("a", 1)
	if err := b.Spill(); err == nil {
		t.Error("spill without serializers must fail")
	}
}

func TestGroupBuffersMatchReference(t *testing.T) {
	pairs := []decompose.Pair[int64, int64]{
		{Key: 1, Value: 10}, {Key: 2, Value: 20}, {Key: 1, Value: 11},
		{Key: 3, Value: 30}, {Key: 1, Value: 12}, {Key: 2, Value: 21},
	}
	want := map[int64][]int64{1: {10, 11, 12}, 2: {20, 21}, 3: {30}}

	obj := NewObjectGroup[int64, int64](ObjectConfig[int64, int64]{})
	defer obj.Release()
	m := memory.NewManager(64, 0)
	dec := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	defer dec.Release()

	for _, p := range pairs {
		obj.Put(p.Key, p.Value)
		dec.Put(p.Key, p.Value)
	}
	check := func(name string, drain func(func(int64, []int64) bool) error) {
		got := map[int64][]int64{}
		if err := drain(func(k int64, vs []int64) bool {
			got[k] = vs
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			sort.Slice(got[k], func(i, j int) bool { return got[k][i] < got[k][j] })
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
	check("object", obj.Drain)
	check("deca", dec.Drain)
	if obj.Values() != 6 || dec.Values() != 6 {
		t.Errorf("Values = %d/%d, want 6", obj.Values(), dec.Values())
	}
}

func TestGroupSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := memory.NewManager(64, 0)
	obj := NewObjectGroup[string, int64](ObjectConfig[string, int64]{
		KeySer: serial.Str{}, ValSer: serial.Int64{}, SpillDir: dir})
	defer obj.Release()
	dec := NewDecaGroup[string, int64](m, decompose.StringCodec{}, decompose.Int64Codec{}, dir)
	defer dec.Release()

	want := map[string][]int64{}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		k := string(rune('a' + r.Intn(10)))
		v := int64(i)
		want[k] = append(want[k], v)
		obj.Put(k, v)
		dec.Put(k, v)
		if i%100 == 99 {
			if err := obj.Spill(); err != nil {
				t.Fatal(err)
			}
			if err := dec.Spill(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := range want {
		sort.Slice(want[k], func(i, j int) bool { return want[k][i] < want[k][j] })
	}
	check := func(name string, drain func(func(string, []int64) bool) error) {
		got := map[string][]int64{}
		if err := drain(func(k string, vs []int64) bool {
			got[k] = vs
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for k := range got {
			sort.Slice(got[k], func(i, j int) bool { return got[k][i] < got[k][j] })
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s spill merge mismatch", name)
		}
	}
	check("object", obj.Drain)
	check("deca", dec.Drain)
}

// Property: both aggregation buffers agree with the reference for random
// workloads, spilling at random points.
func TestAggEquivalenceProperty(t *testing.T) {
	dir := t.TempDir()
	prop := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m := memory.NewManager(256, 0)
		obj := NewObjectAgg[int64, int64](func(a, b int64) int64 { return a + b },
			ObjectConfig[int64, int64]{KeySer: serial.Int64{}, ValSer: serial.Int64{}, SpillDir: dir})
		defer obj.Release()
		dec, _ := NewDecaAgg[int64, int64](m, func(a, b int64) int64 { return a + b },
			decompose.Int64Codec{}, decompose.Int64Codec{}, dir)
		defer dec.Release()

		ref := map[int64]int64{}
		for i := 0; i < int(n); i++ {
			k := int64(r.Intn(16))
			v := r.Int63n(1000) - 500
			ref[k] += v
			obj.Put(k, v)
			dec.Put(k, v)
			if r.Intn(32) == 0 {
				if obj.Spill() != nil || dec.Spill() != nil {
					return false
				}
			}
		}
		gotObj := map[int64]int64{}
		if err := obj.Drain(func(k, v int64) bool { gotObj[k] = v; return true }); err != nil {
			return false
		}
		gotDec := map[int64]int64{}
		if err := dec.Drain(func(k, v int64) bool { gotDec[k] = v; return true }); err != nil {
			return false
		}
		return reflect.DeepEqual(gotObj, ref) && reflect.DeepEqual(gotDec, ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	m := memory.NewManager(64, 0)
	dec, _ := NewDecaAgg[int64, int64](m, func(a, b int64) int64 { return a + b },
		decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	dec.Put(1, 1)
	dec.Release()
	dec.Release() // second release must be a no-op, not a panic
	if m.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("InUse after release = %d", m.Counters()[obs.PageBytesInUse])
	}
}

func TestSizeBytesGrow(t *testing.T) {
	m := memory.NewManager(1024, 0)
	dec := NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, "")
	defer dec.Release()
	empty := dec.SizeBytes()
	for i := int64(0); i < 100; i++ {
		dec.Put(i%5, i)
	}
	if dec.SizeBytes() <= empty {
		t.Error("SizeBytes did not grow")
	}
}
