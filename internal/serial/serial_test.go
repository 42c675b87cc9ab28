package serial

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInt64RoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, -128, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		b := Int64{}.Marshal(nil, v)
		got, n := Int64{}.Unmarshal(b)
		if got != v || n != len(b) {
			t.Errorf("int64 %d: got %d consumed %d of %d", v, got, n, len(b))
		}
	}
}

func TestVarintCompression(t *testing.T) {
	// Small values must encode small — the point of Kryo-style varints.
	if b := (Int64{}).Marshal(nil, 3); len(b) != 1 {
		t.Errorf("varint(3) = %d bytes, want 1", len(b))
	}
	if b := (Int64{}).Marshal(nil, math.MaxInt64); len(b) < 9 {
		t.Errorf("varint(max) = %d bytes, want >= 9", len(b))
	}
}

func TestF64RoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		b := F64{}.Marshal(nil, v)
		got, n := F64{}.Unmarshal(b)
		if got != v || n != 8 {
			t.Errorf("float64 %v: got %v n=%d", v, got, n)
		}
	}
	b := F64{}.Marshal(nil, math.NaN())
	got, _ := F64{}.Unmarshal(b)
	if !math.IsNaN(got) {
		t.Error("NaN did not round trip")
	}
}

func TestStrRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "hello world", string([]byte{0, 1, 255})} {
		b := Str{}.Marshal(nil, s)
		got, n := Str{}.Unmarshal(b)
		if got != s || n != len(b) {
			t.Errorf("string %q: got %q n=%d len=%d", s, got, n, len(b))
		}
	}
}

func TestSlicesRoundTrip(t *testing.T) {
	fv := []float64{1, -2.5, 3e9}
	b := F64Slice{}.Marshal(nil, fv)
	got, n := F64Slice{}.Unmarshal(b)
	if !reflect.DeepEqual(got, fv) || n != len(b) {
		t.Errorf("[]float64 round trip failed: %v", got)
	}

	iv := []int64{5, -6, 7 << 30}
	b2 := I64Slice{}.Marshal(nil, iv)
	got2, n2 := I64Slice{}.Unmarshal(b2)
	if !reflect.DeepEqual(got2, iv) || n2 != len(b2) {
		t.Errorf("[]int64 round trip failed: %v", got2)
	}
}

func TestEmptySlices(t *testing.T) {
	b := F64Slice{}.Marshal(nil, nil)
	got, n := F64Slice{}.Unmarshal(b)
	if len(got) != 0 || n != len(b) {
		t.Errorf("empty slice round trip: %v n=%d", got, n)
	}
}

func TestPairRoundTrip(t *testing.T) {
	p := Pair[string, int64]{Key: Str{}, Value: Int64{}}
	v := KV[string, int64]{Key: "word", Value: 42}
	b := p.Marshal(nil, v)
	got, n := p.Unmarshal(b)
	if got != v || n != len(b) {
		t.Errorf("pair round trip: %+v n=%d", got, n)
	}
}

func TestFuncSerializer(t *testing.T) {
	type point struct{ X, Y float64 }
	ps := Func[point]{
		MarshalFunc: func(dst []byte, v point) []byte {
			dst = AppendFloat64(dst, v.X)
			return AppendFloat64(dst, v.Y)
		},
		UnmarshalFunc: func(src []byte) (point, int) {
			x, _ := Float64(src)
			y, _ := Float64(src[8:])
			return point{x, y}, 16
		},
	}
	v := point{1.5, -2.5}
	b := ps.Marshal(nil, v)
	got, n := ps.Unmarshal(b)
	if got != v || n != 16 {
		t.Errorf("func serializer: %+v n=%d", got, n)
	}
}

func TestMarshalAppends(t *testing.T) {
	// Marshal must append, preserving existing bytes (streaming use).
	b := []byte{0xAB}
	b = Int64{}.Marshal(b, 5)
	if b[0] != 0xAB {
		t.Error("Marshal overwrote prefix")
	}
	got, _ := Int64{}.Unmarshal(b[1:])
	if got != 5 {
		t.Error("appended value corrupt")
	}
}

// Property: streams of mixed records round-trip; consumed byte counts
// partition the buffer exactly.
func TestStreamProperty(t *testing.T) {
	p := Pair[string, int64]{Key: Str{}, Value: Int64{}}
	prop := func(pairs map[string]int64) bool {
		var buf []byte
		var want []KV[string, int64]
		for k, v := range pairs {
			kv := KV[string, int64]{Key: k, Value: v}
			want = append(want, kv)
			buf = p.Marshal(buf, kv)
		}
		off := 0
		var got []KV[string, int64]
		for off < len(buf) {
			kv, n := p.Unmarshal(buf[off:])
			if n <= 0 {
				return false
			}
			got = append(got, kv)
			off += n
		}
		if len(got) != len(want) {
			return false
		}
		m := make(map[string]int64, len(got))
		for _, kv := range got {
			m[kv.Key] = kv.Value
		}
		return reflect.DeepEqual(m, pairs) || (len(pairs) == 0 && len(m) == 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
