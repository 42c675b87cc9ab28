package decompose

import "bytes"

// chunkSize is the size of a Chunk's arrays: a drain of short keys takes
// one every few thousand of them, and its last array's unused tail is small.
const chunkSize = 32 << 10

// Chunk is where one reader of decomposed records — a container's drain —
// keeps the bytes of the values it decodes, in one of two forms.
//
// The owning form (the zero Chunk) gives each value bytes its consumer may
// keep. A string's bytes are cut from a few GC-owned arrays instead of
// allocated one per value, so values that die together are allocated
// together, and an array dies with the last value cut from it: §4's
// lifetime rule, applied to what a container yields. An owning array is
// append-only: where a value was cut from it, it is never written again.
//
// The lending form (LendingChunk) is for a consumer that keeps no value
// past the call it is handed to: every value is cut from one array, from
// its start again after each Reuse, and that array, grown to the largest
// loan, is all a reader of any length allocates.
//
// Neither form is pooled, shared between readers or a view of manager
// pages: Release hands a page to the next container, and a value its
// caller kept must not change with it. A lent value a consumer wrongly kept
// reads a later value (under the decapoison build, blanks), never a page.
type Chunk struct {
	free []byte
	lent []byte // the lending form's array; nil in the owning form
}

// LendingChunk returns a Chunk in its lending form. Its array is taken at
// the first copy (a reader of values with no memory of their own, such as
// int64 keys, never takes one), so it starts empty, not nil.
func LendingChunk() *Chunk { return &Chunk{lent: []byte{}} }

// Copy returns a copy of b cut from the chunk, its capacity ending at its
// length. In the owning form, a b the current array has no room left for
// starts a new one, or, longer than a quarter of an array, gets an array
// of its own; in the lending form, it moves the chunk to a larger array.
func (c *Chunk) Copy(b []byte) []byte {
	if len(b) > len(c.free) {
		switch {
		case c.lent != nil:
			c.lent = make([]byte, 2*len(c.lent)+len(b))
			c.free = c.lent
		case len(b) > chunkSize/4:
			return bytes.Clone(b)
		default:
			c.free = make([]byte, chunkSize)
		}
	}
	out := c.free[:len(b):len(b)]
	copy(out, b)
	c.free = c.free[len(b):]
	return out
}

// Reuse ends the loan of what the chunk cut since the last Reuse: a lending
// Chunk cuts its next value from the start of its array again, after the
// decapoison build blanks what it lent. The owning form ignores it.
func (c *Chunk) Reuse() {
	if c.lent != nil {
		spoil(c.lent[:len(c.lent)-len(c.free)])
		c.free = c.lent
	}
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
