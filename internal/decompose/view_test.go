package decompose

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"deca/internal/memory"
)

// alignedBytes returns n bytes that start 8-byte aligned, as all manager
// memory does.
func alignedBytes(n int) []byte {
	slab := memory.NewManager(0, 0).NewSlab(n)
	return slab.Bytes()
}

// bitPatterns fills b with random bits and plants the values a float
// comparison would hide: NaNs with payloads, infinities, -0.
func bitPatterns(r *rand.Rand, b []byte) {
	r.Read(b)
	special := []uint64{
		math.Float64bits(math.NaN()), 0x7ff0000000000001, 0xfff8dead0000beef,
		math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Inf(-1)), 0,
	}
	for i, v := range special {
		if 8*i+8 <= len(b) {
			PutI64(b, 8*i, int64(v))
		}
	}
}

func sameAsAccessors(t *testing.T, what string, b []byte, f []float64, n []int64) {
	t.Helper()
	if len(f) != len(b)/8 || len(n) != len(b)/8 {
		t.Fatalf("%s: %d floats, %d ints from %d bytes", what, len(f), len(n), len(b))
	}
	for i := range f {
		if got, want := math.Float64bits(f[i]), math.Float64bits(F64(b, 8*i)); got != want {
			t.Errorf("%s: float %d = %#x, F64 reads %#x", what, i, got, want)
		}
		if got, want := n[i], I64(b, 8*i); got != want {
			t.Errorf("%s: int %d = %#x, I64 reads %#x", what, i, got, want)
		}
	}
}

// TestViewsEqualAccessors: at every alignment and for every length, viewed
// or decoded, the values are bit for bit what F64/I64 read — and the decode
// path, which is all a big-endian host has, is held to the same.
func TestViewsEqualAccessors(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	buf := alignedBytes(8 + 8*13 + 5)
	bitPatterns(r, buf)
	for shift := 0; shift < 8; shift++ {
		for _, n := range []int{0, 8, 88, 8*13 - 3} {
			b := buf[shift : shift+n]
			sameAsAccessors(t, "Float64s/Int64s", b, Float64s(nil, b), Int64s(nil, b))
			sameAsAccessors(t, "decode", b, decodeFloat64s(nil, b), decodeInt64s(nil, b))
		}
	}
}

func TestAlignedSliceIsViewed(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("a big-endian host decodes everything")
	}
	b := alignedBytes(88)
	bitPatterns(rand.New(rand.NewSource(1)), b)
	fdst, idst := []float64{42}, []int64{42}
	f, n := Float64s(fdst, b), Int64s(idst, b)
	if unsafe.Pointer(unsafe.SliceData(f)) != unsafe.Pointer(unsafe.SliceData(b)) ||
		unsafe.Pointer(unsafe.SliceData(n)) != unsafe.Pointer(unsafe.SliceData(b)) {
		t.Fatal("an aligned slice was copied, not viewed")
	}
	// A write through b shows in the view; dst was never touched.
	PutF64(b, 80, 2.5)
	if f[10] != 2.5 || n[10] != int64(math.Float64bits(2.5)) {
		t.Errorf("view reads %v / %#x after writing 2.5 through the bytes", f[10], n[10])
	}
	if fdst[0] != 42 || idst[0] != 42 {
		t.Error("viewing wrote into dst")
	}
	// A tail that is not a whole value is not part of the view.
	if f := Float64s(nil, b[:85]); len(f) != 10 || cap(f) != 10 {
		t.Errorf("view of 85 bytes has len %d cap %d, want 10", len(f), cap(f))
	}
}

func TestMisalignedSliceIsDecodedIntoDst(t *testing.T) {
	buf := alignedBytes(8 + 88)
	bitPatterns(rand.New(rand.NewSource(2)), buf)
	for shift := 1; shift < 8; shift++ {
		b := buf[shift : shift+88]
		roomy, short := make([]float64, 16), make([]float64, 2)
		f := Float64s(roomy, b)
		if &f[0] != &roomy[0] {
			t.Errorf("shift %d: decoded somewhere other than a dst with room", shift)
		}
		g := Float64s(short, b)
		if len(g) != 11 || &g[0] == &short[0] {
			t.Errorf("shift %d: a short dst was not grown (len %d)", shift, len(g))
		}
		iroomy := make([]int64, 16)
		if n := Int64s(iroomy, b); &n[0] != &iroomy[0] {
			t.Errorf("shift %d: ints decoded somewhere other than a dst with room", shift)
		}
		sameAsAccessors(t, "misaligned", b, f, Int64s(nil, b))
	}
}
