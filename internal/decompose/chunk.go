package decompose

import "bytes"

// chunkSize is the size of a Chunk's arrays: a drain of short keys takes
// one every few thousand of them, and its last array's unused tail is small.
const chunkSize = 32 << 10

// Chunk is where one reader of decomposed records — a container's drain —
// keeps the bytes of the values it decodes. A string's bytes are cut from a
// few GC-owned arrays instead of allocated one per value, so values that
// die together are allocated together, and an array dies with the last
// value cut from it: §4's lifetime rule, applied to what a container
// yields.
//
// An array is append-only: where a value was cut from it, it is never
// written again. A Chunk is never pooled, never shared between readers and
// never a view of manager pages: Release hands a page to the next
// container, and a value its caller kept must not change with it. The zero
// Chunk is ready to use.
type Chunk struct{ free []byte }

// Copy returns a copy of b cut from the chunk, its capacity ending at its
// length. A b the current array has no room left for starts a new one, or,
// longer than a quarter of an array, gets an array of its own.
func (c *Chunk) Copy(b []byte) []byte {
	if len(b) > len(c.free) {
		if len(b) > chunkSize/4 {
			return bytes.Clone(b)
		}
		c.free = make([]byte, chunkSize)
	}
	out := c.free[:len(b):len(b)]
	copy(out, b)
	c.free = c.free[len(b):]
	return out
}

// ChunkDecoder is the chunked form of a Codec whose decoded values hold
// memory of their own: DecodeChunk is Decode with that memory cut from c.
// A segment shorter than its encoding announces decodes nothing: 0 bytes
// consumed.
type ChunkDecoder[T any] interface {
	DecodeChunk(seg []byte, c *Chunk) (T, int)
}

// Decoder decodes one codec's values for one reader: through the codec's
// chunked form into the reader's chunk where the codec has one, through
// Codec.Decode otherwise.
type Decoder[T any] struct {
	codec   Codec[T]
	chunked ChunkDecoder[T]
	chunk   *Chunk
}

// NewDecoder binds c to chunk, which belongs to one reader for as long as
// it reads; two decoders of that reader may share it.
func NewDecoder[T any](c Codec[T], chunk *Chunk) Decoder[T] {
	cd, _ := c.(ChunkDecoder[T])
	return Decoder[T]{codec: c, chunked: cd, chunk: chunk}
}

// Decode reads one value from the front of seg and returns the bytes
// consumed.
func (d Decoder[T]) Decode(seg []byte) (T, int) {
	if d.chunked != nil {
		return d.chunked.DecodeChunk(seg, d.chunk)
	}
	return d.codec.Decode(seg)
}

// Exact decodes the one value seg holds, seg's capacity cut at its end, and
// reports whether the codec consumed exactly seg: a length inside an
// encoding is believed only as far as the record that holds it.
func (d Decoder[T]) Exact(seg []byte) (T, bool) {
	v, n := d.Decode(seg[:len(seg):len(seg)])
	return v, n > 0 && n == len(seg)
}
