package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"deca/internal/decompose"
	"deca/internal/serial"
	"deca/internal/shuffle"
	"deca/internal/transport"
)

func TestMapValuesKeysValues(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []decompose.Pair[string, int64]{
		KV("a", int64(1)), KV("b", int64(2)),
	}, 2)

	doubled := MapValues(d, func(v int64) int64 { return v * 2 })
	got, err := CollectMap(doubled)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 2 || got["b"] != 4 {
		t.Errorf("MapValues = %v", got)
	}

	keys, err := Collect(Keys(d))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, []string{"a", "b"}) {
		t.Errorf("Keys = %v", keys)
	}

	vals, err := Collect(Values(d))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if !reflect.DeepEqual(vals, []int64{1, 2}) {
		t.Errorf("Values = %v", vals)
	}
}

func TestKeyBy(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []string{"apple", "fig", "cherry"}, 2)
	keyed := KeyBy(d, func(s string) int { return len(s) })
	got, err := CollectMap(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != "fig" || got[5] != "apple" || got[6] != "cherry" {
		t.Errorf("KeyBy = %v", got)
	}
}

func TestUnion(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	a := Parallelize(ctx, []int{1, 2}, 2)
	b := Parallelize(ctx, []int{3, 4, 5}, 2)
	u := Union(a, b)
	if u.Partitions() != 4 {
		t.Errorf("Union partitions = %d, want 4", u.Partitions())
	}
	got, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5}) {
		t.Errorf("Union = %v", got)
	}
}

func TestUnionAcrossContextsPanics(t *testing.T) {
	ctx1 := testCtx(t, ModeSpark)
	ctx2 := testCtx(t, ModeSpark)
	a := Parallelize(ctx1, []int{1}, 1)
	b := Parallelize(ctx2, []int{2}, 1)
	defer func() {
		if recover() == nil {
			t.Error("Union across contexts should panic")
		}
	}()
	Union(a, b)
}

func TestDistinct(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			ctx := testCtx(t, mode)
			d := Parallelize(ctx, []int64{3, 1, 3, 2, 1, 3}, 3)
			ops := PairOps[int64, int8]{
				Key:      shuffle.Int64Key(),
				KeySer:   serial.Int64{},
				KeyCodec: decompose.Int64Codec{},
				ValSer: serial.Func[int8]{
					MarshalFunc:   func(dst []byte, v int8) []byte { return append(dst, byte(v)) },
					UnmarshalFunc: func(src []byte) (int8, int) { return int8(src[0]), 1 },
				},
				ValCodec:   int8Codec{},
				Partitions: 2,
			}
			got, err := Collect(Distinct(d, ops))
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !reflect.DeepEqual(got, []int64{1, 2, 3}) {
				t.Errorf("Distinct = %v", got)
			}
		})
	}
}

// int8Codec is a test codec for Distinct's marker values.
type int8Codec struct{}

func (int8Codec) FixedSize() int                { return 1 }
func (int8Codec) Size(int8) int                 { return 1 }
func (int8Codec) Encode(seg []byte, v int8)     { seg[0] = byte(v) }
func (int8Codec) Decode(seg []byte) (int8, int) { return int8(seg[0]), 1 }

func TestCountByKey(t *testing.T) {
	ctx := testCtx(t, ModeDeca)
	d := Parallelize(ctx, []decompose.Pair[string, string]{
		KV("x", "?"), KV("y", "?"), KV("x", "?"), KV("x", "?"),
	}, 2)
	ops := PairOps[string, int64]{
		Key:        shuffle.StringKey(),
		KeySer:     serial.Str{},
		ValSer:     serial.Int64{},
		KeyCodec:   decompose.StringCodec{},
		ValCodec:   decompose.Int64Codec{},
		Partitions: 2,
	}
	got, err := CollectMap(CountByKey(d, ops))
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != 3 || got["y"] != 1 {
		t.Errorf("CountByKey = %v", got)
	}
}

func TestAggregateByKey(t *testing.T) {
	ctx := testCtx(t, ModeSpark)
	d := Parallelize(ctx, []decompose.Pair[string, int64]{
		KV("a", int64(3)), KV("a", int64(5)), KV("b", int64(2)),
	}, 2)
	// Aggregate into (sum, count) accumulators.
	type acc struct{ Sum, N int64 }
	ops := PairOps[string, acc]{
		Key:    shuffle.StringKey(),
		KeySer: serial.Str{},
		ValSer: serial.Func[acc]{
			MarshalFunc: func(dst []byte, v acc) []byte {
				return serial.AppendVarint(serial.AppendVarint(dst, v.Sum), v.N)
			},
			UnmarshalFunc: func(src []byte) (acc, int) {
				sum, n := serial.Varint(src)
				cnt, k := serial.Varint(src[n:])
				return acc{Sum: sum, N: cnt}, n + k
			},
		},
		Partitions: 2,
	}
	agg := AggregateByKey(d, ops,
		func() acc { return acc{} },
		func(a acc, v int64) acc { return acc{Sum: a.Sum + v, N: a.N + 1} },
		func(a, b acc) acc { return acc{Sum: a.Sum + b.Sum, N: a.N + b.N} },
	)
	got, err := CollectMap(agg)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != (acc{Sum: 8, N: 2}) || got["b"] != (acc{Sum: 2, N: 1}) {
		t.Errorf("AggregateByKey = %v", got)
	}
}

// TestObjectShuffleWithoutSerializersFailsAtMaterialization: an
// Object-mode shuffle crosses executors as a serialized frame or not at
// all — built without KeySer/ValSer it fails when it materializes, with
// an error naming the missing serializer, and leaves nothing behind.
func TestObjectShuffleWithoutSerializersFailsAtMaterialization(t *testing.T) {
	for _, missing := range []string{"KeySer", "ValSer"} {
		t.Run(missing, func(t *testing.T) {
			ctx := testCtx(t, ModeSpark)
			ops := PairOps[string, int64]{Key: shuffle.StringKey(), KeySer: serial.Str{}, ValSer: serial.Int64{}, Partitions: 2}
			if missing == "KeySer" {
				ops.KeySer = nil
			} else {
				ops.ValSer = nil
			}
			d := Parallelize(ctx, []decompose.Pair[string, int64]{KV("a", int64(1)), KV("b", int64(2))}, 2)
			red := ReduceByKey(d, ops, func(a, b int64) int64 { return a + b }) // building it is not the failure
			_, err := Collect(red)
			if err == nil || !strings.Contains(err.Error(), "PairOps."+missing+" is nil") {
				t.Fatalf("Collect = %v, want an error naming PairOps.%s", err, missing)
			}
			if n := ctx.trans.(*transport.Plane).Pending(); n != 0 || ctx.MemoryInUse() != 0 {
				t.Errorf("the failed shuffle left %d registrations and %d bytes behind", n, ctx.MemoryInUse())
			}
		})
	}
}
