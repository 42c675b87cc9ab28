package decompose

import (
	"encoding/binary"
	"math"
	"unsafe"

	"deca/internal/memory"
)

// Codec encodes values of one UDT into the compact Deca byte layout and
// back. A Codec is the Go equivalent of the SUDT class Deca synthesizes
// per UDT (Appendix B): Encode is the transformed constructor (write
// initial values straight into the byte array), Decode is the transformed
// field read path, and Size is the synthesized data-size method.
//
// Encode must write exactly Size(v) bytes; Decode returns the value and the
// number of bytes consumed, so RuntimeFixed records can be scanned without
// an external index.
type Codec[T any] interface {
	// FixedSize returns the constant encoded size, or -1 when instances
	// vary (RuntimeFixed layouts).
	FixedSize() int
	// Size returns the encoded size of v in bytes.
	Size(v T) int
	// Encode writes v into seg, which holds exactly Size(v) bytes.
	Encode(seg []byte, v T)
	// Decode reads one value from the front of seg and returns the bytes
	// consumed.
	Decode(seg []byte) (T, int)
}

// Write encodes v into the page group and returns its segment pointer.
func Write[T any](g *memory.Group, c Codec[T], v T) memory.Ptr {
	seg, ptr := g.Alloc(c.Size(v))
	c.Encode(seg, v)
	return ptr
}

// ReadAt decodes the value at ptr. The segment may be shorter than the
// page remainder; Decode consumes only its own bytes.
func ReadAt[T any](g *memory.Group, c Codec[T], ptr memory.Ptr) T {
	page := g.Page(int(ptr.Page))
	v, _ := c.Decode(page[ptr.Off:])
	return v
}

// Scan decodes every value in the group in write order, calling yield for
// each. It stops early when yield returns false.
func Scan[T any](g *memory.Group, c Codec[T], yield func(T) bool) {
	for p := 0; p < g.NumPages(); p++ {
		page := g.Page(p)
		off := 0
		for off < len(page) {
			v, n := c.Decode(page[off:])
			if n <= 0 {
				panic("decompose: codec consumed no bytes")
			}
			if !yield(v) {
				return
			}
			off += n
		}
	}
}

//
// Built-in codecs for primitive and common composite shapes. These cover
// the key/value types of the paper's workloads (WordCount pairs, vertex
// ids, rank values, feature vectors).
//

// Int64Codec encodes int64 values (8 bytes, StaticFixed).
type Int64Codec struct{}

func (Int64Codec) FixedSize() int             { return 8 }
func (Int64Codec) Size(int64) int             { return 8 }
func (Int64Codec) Encode(seg []byte, v int64) { PutI64(seg, 0, v) }
func (Int64Codec) Decode(seg []byte) (int64, int) {
	return I64(seg, 0), 8
}

// Float64Codec encodes float64 values (8 bytes, StaticFixed).
type Float64Codec struct{}

func (Float64Codec) FixedSize() int               { return 8 }
func (Float64Codec) Size(float64) int             { return 8 }
func (Float64Codec) Encode(seg []byte, v float64) { PutF64(seg, 0, v) }
func (Float64Codec) Decode(seg []byte) (float64, int) {
	return F64(seg, 0), 8
}

// Int32Codec encodes int32 values (4 bytes, StaticFixed).
type Int32Codec struct{}

func (Int32Codec) FixedSize() int             { return 4 }
func (Int32Codec) Size(int32) int             { return 4 }
func (Int32Codec) Encode(seg []byte, v int32) { PutI32(seg, 0, v) }
func (Int32Codec) Decode(seg []byte) (int32, int) {
	return I32(seg, 0), 4
}

// StringCodec encodes strings as uint32 length + bytes (RuntimeFixed: the
// String UDT is a struct with a final byte array, §6.6).
type StringCodec struct{}

func (StringCodec) FixedSize() int    { return -1 }
func (StringCodec) Size(s string) int { return 4 + len(s) }
func (StringCodec) Encode(seg []byte, s string) {
	binary.LittleEndian.PutUint32(seg, uint32(len(s)))
	copy(seg[4:], s)
}
func (StringCodec) Decode(seg []byte) (string, int) {
	n := int(binary.LittleEndian.Uint32(seg))
	return string(seg[4 : 4+n]), 4 + n
}

// DecodeChunk is Decode with the string's bytes cut from c (ChunkDecoder):
// the string is a view of c, not an allocation of its own.
func (StringCodec) DecodeChunk(seg []byte, c *Chunk) (string, int) {
	if len(seg) < 4 {
		return "", 0
	}
	n := binary.LittleEndian.Uint32(seg)
	if uint64(n) > uint64(len(seg)-4) {
		return "", 0
	}
	if n == 0 {
		return "", 4
	}
	b := c.Copy(seg[4 : 4+n])
	return unsafe.String(&b[0], n), 4 + int(n)
}

// Float64VecCodec encodes fixed-dimension float64 vectors: the StaticFixed
// layout of the LR/KMeans feature arrays once the global analysis has
// proven the dimension constant (§3.3). Dim must match every encoded
// vector; Encode panics otherwise, because writing a differently-sized
// object would corrupt the byte layout — exactly the unsafety the
// classification rules out.
type Float64VecCodec struct{ Dim int }

func (c Float64VecCodec) FixedSize() int       { return 8 * c.Dim }
func (c Float64VecCodec) Size(v []float64) int { return 8 * c.Dim }
func (c Float64VecCodec) Encode(seg []byte, v []float64) {
	if len(v) != c.Dim {
		panic("decompose: vector dimension mismatch with StaticFixed layout")
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(seg[i*8:], math.Float64bits(x))
	}
}
func (c Float64VecCodec) Decode(seg []byte) ([]float64, int) {
	v := make([]float64, c.Dim)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(seg[i*8:]))
	}
	return v, 8 * c.Dim
}

// Int64VecCodec encodes fixed-dimension int64 vectors as raw
// little-endian words: the StaticFixed layout of constant-width integer
// arrays (feature ids, adjacency degrees) once the global analysis has
// proven the dimension constant (§3.3). Same contract as Float64VecCodec:
// Encode panics on a dimension mismatch.
type Int64VecCodec struct{ Dim int }

func (c Int64VecCodec) FixedSize() int     { return 8 * c.Dim }
func (c Int64VecCodec) Size(v []int64) int { return 8 * c.Dim }
func (c Int64VecCodec) Encode(seg []byte, v []int64) {
	if len(v) != c.Dim {
		panic("decompose: vector dimension mismatch with StaticFixed layout")
	}
	for i, x := range v {
		binary.LittleEndian.PutUint64(seg[i*8:], uint64(x))
	}
}
func (c Int64VecCodec) Decode(seg []byte) ([]int64, int) {
	v := make([]int64, c.Dim)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(seg[i*8:]))
	}
	return v, 8 * c.Dim
}

// Int64SliceCodec encodes variable-length int64 slices with a uint32 count
// prefix (RuntimeFixed). Used for adjacency lists in PR/CC.
type Int64SliceCodec struct{}

func (Int64SliceCodec) FixedSize() int     { return -1 }
func (Int64SliceCodec) Size(v []int64) int { return 4 + 8*len(v) }
func (Int64SliceCodec) Encode(seg []byte, v []int64) {
	binary.LittleEndian.PutUint32(seg, uint32(len(v)))
	for i, x := range v {
		binary.LittleEndian.PutUint64(seg[4+i*8:], uint64(x))
	}
}
func (Int64SliceCodec) Decode(seg []byte) ([]int64, int) {
	n := int(binary.LittleEndian.Uint32(seg))
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(seg[4+i*8:]))
	}
	return v, 4 + 8*n
}

// Pair is a key-value record, the engine's shuffle currency (Spark's
// Tuple2).
type Pair[K any, V any] struct {
	Key   K
	Value V
}

// PairCodec combines a key codec and a value codec.
type PairCodec[K any, V any] struct {
	KeyCodec   Codec[K]
	ValueCodec Codec[V]
}

func (c PairCodec[K, V]) FixedSize() int {
	ks, vs := c.KeyCodec.FixedSize(), c.ValueCodec.FixedSize()
	if ks < 0 || vs < 0 {
		return -1
	}
	return ks + vs
}

func (c PairCodec[K, V]) Size(p Pair[K, V]) int {
	return c.KeyCodec.Size(p.Key) + c.ValueCodec.Size(p.Value)
}

func (c PairCodec[K, V]) Encode(seg []byte, p Pair[K, V]) {
	kn := c.KeyCodec.Size(p.Key)
	c.KeyCodec.Encode(seg[:kn], p.Key)
	c.ValueCodec.Encode(seg[kn:], p.Value)
}

func (c PairCodec[K, V]) Decode(seg []byte) (Pair[K, V], int) {
	k, kn := c.KeyCodec.Decode(seg)
	v, vn := c.ValueCodec.Decode(seg[kn:])
	return Pair[K, V]{Key: k, Value: v}, kn + vn
}

// DecodeChunk is Decode with key and value each decoded through its
// codec's chunked form where it has one (ChunkDecoder); where either
// decodes nothing, so does the pair.
func (c PairCodec[K, V]) DecodeChunk(seg []byte, chunk *Chunk) (Pair[K, V], int) {
	k, kn := NewDecoder(c.KeyCodec, chunk).Decode(seg)
	if kn == 0 {
		return Pair[K, V]{}, 0
	}
	v, vn := NewDecoder(c.ValueCodec, chunk).Decode(seg[kn:])
	if vn == 0 {
		return Pair[K, V]{}, 0
	}
	return Pair[K, V]{Key: k, Value: v}, kn + vn
}
