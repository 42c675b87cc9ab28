// Package decompose is the runtime codec layer: it writes records into
// compact byte segments inside memory page groups and reads them back
// (paper §2.3, Figure 2 and Appendix B).
//
// A Codec encodes and decodes one record type; the primitive accessors
// below and the typed views (Float64s, Int64s) are what transformed code
// uses to read fields straight from the raw bytes. A reader that yields
// the values it decodes — a container's drain — decodes them through a
// Decoder into a Chunk of its own, so they share a few arrays that die
// together.
//
// The codecs are written by hand. Each is the equivalent of the layout
// core.CompileLayout derives from its type's classification (constant
// offsets for StaticFixed, length-prefixed arrays for RuntimeFixed), but
// no job runs that analysis.
package decompose

import (
	"encoding/binary"
	"math"
)

// All decomposed data uses little-endian fixed-width encoding, matching
// what a JVM-offset-based layout would do and keeping accessors branch
// free.

// F64 reads a float64 at off.
func F64(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// PutF64 writes a float64 at off.
func PutF64(b []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
}

// F32 reads a float32 at off.
func F32(b []byte, off int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
}

// PutF32 writes a float32 at off.
func PutF32(b []byte, off int, v float32) {
	binary.LittleEndian.PutUint32(b[off:], math.Float32bits(v))
}

// I64 reads an int64 at off.
func I64(b []byte, off int) int64 {
	return int64(binary.LittleEndian.Uint64(b[off:]))
}

// PutI64 writes an int64 at off.
func PutI64(b []byte, off int, v int64) {
	binary.LittleEndian.PutUint64(b[off:], uint64(v))
}

// I32 reads an int32 at off.
func I32(b []byte, off int) int32 {
	return int32(binary.LittleEndian.Uint32(b[off:]))
}

// PutI32 writes an int32 at off.
func PutI32(b []byte, off int, v int32) {
	binary.LittleEndian.PutUint32(b[off:], uint32(v))
}

// I16 reads an int16 at off.
func I16(b []byte, off int) int16 {
	return int16(binary.LittleEndian.Uint16(b[off:]))
}

// PutI16 writes an int16 at off.
func PutI16(b []byte, off int, v int16) {
	binary.LittleEndian.PutUint16(b[off:], uint16(v))
}

// I8 reads an int8 at off.
func I8(b []byte, off int) int8 { return int8(b[off]) }

// PutI8 writes an int8 at off.
func PutI8(b []byte, off int, v int8) { b[off] = byte(v) }

// Bool reads a bool at off.
func Bool(b []byte, off int) bool { return b[off] != 0 }

// PutBool writes a bool at off.
func PutBool(b []byte, off int, v bool) {
	if v {
		b[off] = 1
	} else {
		b[off] = 0
	}
}
