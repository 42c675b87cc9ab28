package decompose

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"deca/internal/memory"
)

func TestPrimitiveAccessorsRoundTrip(t *testing.T) {
	b := make([]byte, 64)
	PutF64(b, 0, 3.14159)
	PutI64(b, 12, -1<<62)
	PutI32(b, 20, -12345)

	if F64(b, 0) != 3.14159 {
		t.Error("F64 round trip failed")
	}
	if I64(b, 12) != -1<<62 {
		t.Error("I64 round trip failed")
	}
	if I32(b, 20) != -12345 {
		t.Error("I32 round trip failed")
	}
}

func TestBuiltinCodecsRoundTrip(t *testing.T) {
	m := memory.NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()

	p1 := Write[int64](g, Int64Codec{}, -42)
	p2 := Write[float64](g, Float64Codec{}, math.Pi)
	p3 := Write[string](g, StringCodec{}, "hello deca")
	p4 := Write[int32](g, Int32Codec{}, 7)
	p5 := Write(g, Int64SliceCodec{}, []int64{9, 8})

	if v := ReadAt[int64](g, Int64Codec{}, p1); v != -42 {
		t.Errorf("int64 = %d", v)
	}
	if v := ReadAt[float64](g, Float64Codec{}, p2); v != math.Pi {
		t.Errorf("float64 = %v", v)
	}
	if v := ReadAt[string](g, StringCodec{}, p3); v != "hello deca" {
		t.Errorf("string = %q", v)
	}
	if v := ReadAt[int32](g, Int32Codec{}, p4); v != 7 {
		t.Errorf("int32 = %d", v)
	}
	if v := ReadAt(g, Int64SliceCodec{}, p5); !reflect.DeepEqual(v, []int64{9, 8}) {
		t.Errorf("[]int64 = %v", v)
	}
}

func TestFixedSizes(t *testing.T) {
	if (Int64Codec{}).FixedSize() != 8 || (Float64Codec{}).FixedSize() != 8 || (Int32Codec{}).FixedSize() != 4 {
		t.Error("primitive codec fixed sizes wrong")
	}
	if (StringCodec{}).FixedSize() != -1 || (Int64SliceCodec{}).FixedSize() != -1 {
		t.Error("variable codecs must report -1")
	}
	if (Float64VecCodec{Dim: 10}).FixedSize() != 80 {
		t.Error("vec codec fixed size wrong")
	}
	pc := PairCodec[int64, float64]{KeyCodec: Int64Codec{}, ValueCodec: Float64Codec{}}
	if pc.FixedSize() != 16 {
		t.Error("pair of fixed should be fixed")
	}
	pv := PairCodec[string, float64]{KeyCodec: StringCodec{}, ValueCodec: Float64Codec{}}
	if pv.FixedSize() != -1 {
		t.Error("pair with variable key must be -1")
	}
}

func TestFloat64VecCodec(t *testing.T) {
	m := memory.NewManager(256, 0)
	g := m.NewGroup()
	defer g.Release()
	c := Float64VecCodec{Dim: 4}
	v := []float64{1.5, -2.5, 3.5, -4.5}
	p := Write(g, c, v)
	if got := ReadAt(g, c, p); !reflect.DeepEqual(got, v) {
		t.Errorf("vec = %v", got)
	}
}

func TestFloat64VecCodecDimMismatchPanics(t *testing.T) {
	m := memory.NewManager(256, 0)
	g := m.NewGroup()
	defer g.Release()
	c := Float64VecCodec{Dim: 4}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch must panic: it would corrupt the layout")
		}
	}()
	Write(g, c, []float64{1})
}

func TestScanOrderAndCount(t *testing.T) {
	m := memory.NewManager(32, 0) // small pages force multiple pages
	g := m.NewGroup()
	defer g.Release()
	c := PairCodec[string, int64]{KeyCodec: StringCodec{}, ValueCodec: Int64Codec{}}
	want := []Pair[string, int64]{
		{"alpha", 1}, {"beta", 2}, {"a-rather-long-key-here", 3}, {"d", 4},
	}
	for _, p := range want {
		Write(g, c, p)
	}
	var got []Pair[string, int64]
	Scan(g, c, func(p Pair[string, int64]) bool {
		got = append(got, p)
		return true
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Scan = %v, want %v", got, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	m := memory.NewManager(64, 0)
	g := m.NewGroup()
	defer g.Release()
	for i := int64(0); i < 10; i++ {
		Write[int64](g, Int64Codec{}, i)
	}
	n := 0
	Scan[int64](g, Int64Codec{}, func(int64) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop consumed %d, want 3", n)
	}
}

// Property: pair codec round-trips arbitrary (string, int64) pairs through
// a page group with tiny pages.
func TestPairCodecProperty(t *testing.T) {
	m := memory.NewManager(48, 0)
	c := PairCodec[string, int64]{KeyCodec: StringCodec{}, ValueCodec: Int64Codec{}}
	prop := func(keys []string, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := m.NewGroup()
		defer g.Release()
		var want []Pair[string, int64]
		var ptrs []memory.Ptr
		for _, k := range keys {
			if len(k) > 30 {
				k = k[:30]
			}
			p := Pair[string, int64]{Key: k, Value: r.Int63()}
			want = append(want, p)
			ptrs = append(ptrs, Write(g, c, p))
		}
		for i, ptr := range ptrs {
			if got := ReadAt(g, c, ptr); got != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
