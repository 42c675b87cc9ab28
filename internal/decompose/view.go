package decompose

import (
	"slices"
	"unsafe"
)

// Typed views: the primitive the transformed code of Appendix B compiles
// down to. A StaticFixed record made only of 8-byte primitives is, on a
// little-endian host, already an array of them; reading a field is then one
// load at a computed offset, not a byte-wise decode per field.

// hostLittleEndian says whether the host's byte order is the layout's.
var hostLittleEndian = func() bool {
	one := uint16(1)
	return *(*byte)(unsafe.Pointer(&one)) == 1
}()

// Float64s returns b's len(b)/8 float64 values. When the host's byte order
// is the layout's and b starts 8-byte aligned, the result is a view of b
// itself — no copy, dst untouched; otherwise the values are decoded into dst
// (grown if short) and that is returned. Either way the caller has one code
// path: the result is read-only and valid until b's page is released or dst
// is reused, and a misaligned or big-endian read is slower, never wrong.
//
// Every record of a StaticFixed layout made only of 8-byte primitives is
// aligned: memory.Manager hands out aligned pages and Group.Alloc packs them
// from offset 0 (memory.TestManagerMemoryIsAligned).
//
// The body is written to fit the inliner's budget — a scan kernel calls this
// once per record, and the call is 3 of its 21 ns (EXPERIMENTS.md "The scan
// path").
func Float64s(dst []float64, b []byte) []float64 {
	if hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
	}
	return decodeFloat64s(dst, b)
}

// Int64s is Float64s for int64 values.
func Int64s(dst []int64, b []byte) []int64 {
	if hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
	}
	return decodeInt64s(dst, b)
}

// decodeFloat64s is Float64s where b cannot be viewed. Out of line, so that
// Float64s inlines.
//
//go:noinline
func decodeFloat64s(dst []float64, b []byte) []float64 {
	n := len(b) / 8
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = F64(b, 8*i)
	}
	return dst
}

//go:noinline
func decodeInt64s(dst []int64, b []byte) []int64 {
	n := len(b) / 8
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = I64(b, 8*i)
	}
	return dst
}
