package serial

import (
	"testing"
)

// FuzzVarintRoundTrip: every int64 round-trips through the zig-zag
// varint, and decoding arbitrary bytes never panics or over-consumes.
func FuzzVarintRoundTrip(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 63, -64, 1 << 20, -(1 << 41), 1<<63 - 1, -1 << 63} {
		f.Add(seed, []byte{})
	}
	f.Fuzz(func(t *testing.T, v int64, junk []byte) {
		enc := AppendVarint(nil, v)
		got, n := Varint(enc)
		if n != len(enc) || got != v {
			t.Fatalf("Varint(AppendVarint(%d)) = %d (consumed %d/%d)", v, got, n, len(enc))
		}
		u := uint64(v)
		uenc := AppendUvarint(nil, u)
		ugot, un := Uvarint(uenc)
		if un != len(uenc) || ugot != u {
			t.Fatalf("Uvarint(AppendUvarint(%d)) = %d (consumed %d/%d)", u, ugot, un, len(uenc))
		}
		// Arbitrary input must decode without panicking and never claim
		// more bytes than exist.
		if _, n := Varint(junk); n > len(junk) {
			t.Fatalf("Varint over-consumed: %d of %d", n, len(junk))
		}
		if _, n := Uvarint(junk); n > len(junk) {
			t.Fatalf("Uvarint over-consumed: %d of %d", n, len(junk))
		}
	})
}

// FuzzStringRoundTrip: strings round-trip, and the decoder survives
// arbitrary (truncated, corrupt) input by returning 0 consumed rather
// than panicking — the property the wire and spill drainers rely on.
func FuzzStringRoundTrip(f *testing.F) {
	f.Add("", []byte{})
	f.Add("hello", []byte{0xff})
	f.Add("日本語 — multibyte", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, s string, junk []byte) {
		enc := AppendString(nil, s)
		got, n := String(enc)
		if n != len(enc) || got != s {
			t.Fatalf("String(AppendString(%q)) = %q (consumed %d/%d)", s, got, n, len(enc))
		}
		// Every truncation of a valid encoding must fail cleanly.
		for cut := 0; cut < len(enc); cut++ {
			if _, n := String(enc[:cut]); n > cut {
				t.Fatalf("String over-consumed truncated input: %d of %d", n, cut)
			}
		}
		// Arbitrary bytes: no panic, no over-consumption.
		if got, n := String(junk); n > len(junk) {
			t.Fatalf("String(%x) = %q over-consumed %d of %d", junk, got, n, len(junk))
		}
	})
}

// FuzzSliceDecoders drives the composite decoders with arbitrary bytes:
// corrupt count prefixes must not allocate huge slices, panic, or
// over-consume.
func FuzzSliceDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // huge count
	f.Add(F64Slice{}.Marshal(nil, []float64{1.5, -2.25}))
	f.Add(I64Slice{}.Marshal(nil, []int64{7, -9, 1 << 50}))
	f.Fuzz(func(t *testing.T, src []byte) {
		if _, n := (F64Slice{}).Unmarshal(src); n > len(src) {
			t.Fatalf("F64Slice over-consumed %d of %d", n, len(src))
		}
		if _, n := (I64Slice{}).Unmarshal(src); n > len(src) {
			t.Fatalf("I64Slice over-consumed %d of %d", n, len(src))
		}
		if _, n := (Pair[string, float64]{Key: Str{}, Value: F64{}}).Unmarshal(src); n > len(src) {
			t.Fatalf("Pair over-consumed %d of %d", n, len(src))
		}
		if _, n := Float64(src); n > len(src) {
			t.Fatalf("Float64 over-consumed %d of %d", n, len(src))
		}
	})
}

// TestDecoderHardening pins the short-input contract without fuzzing.
func TestDecoderHardening(t *testing.T) {
	if _, n := String([]byte{0x05, 'a', 'b'}); n != 0 {
		t.Errorf("String with short body consumed %d, want 0", n)
	}
	if _, n := Float64([]byte{1, 2, 3}); n != 0 {
		t.Errorf("short Float64 consumed %d, want 0", n)
	}
	if _, n := (F64Slice{}).Unmarshal([]byte{0x02, 0, 0}); n != 0 {
		t.Errorf("short F64Slice consumed %d, want 0", n)
	}
	if _, n := (I64Slice{}).Unmarshal([]byte{0x03, 0x01}); n != 0 {
		t.Errorf("short I64Slice consumed %d, want 0", n)
	}
	// F64 (fixed serializer) intentionally mirrors Float64's clamp.
	if _, n := (F64{}).Unmarshal(nil); n != 0 {
		t.Errorf("empty F64 consumed %d, want 0", n)
	}
	// Valid payloads still decode after hardening.
	enc := (I64Slice{}).Marshal(nil, []int64{1, -2, 3})
	if v, n := (I64Slice{}).Unmarshal(enc); n != len(enc) || len(v) != 3 {
		t.Errorf("valid I64Slice decode = %v, %d", v, n)
	}
}
