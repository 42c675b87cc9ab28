package decompose

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"unsafe"
)

// TestChunkCopy: a copy is cut from the chunk's current array right after
// the previous one, its capacity at its end, so an append to it cannot
// reach the next copy; a copy that does not fit starts a new array, or, a
// long one, gets an array of its own.
func TestChunkCopy(t *testing.T) {
	var c Chunk
	a := c.Copy([]byte("abc"))
	b := c.Copy([]byte("defg"))
	if string(a) != "abc" || string(b) != "defg" || cap(a) != 3 || cap(b) != 4 {
		t.Fatalf("copies %q (cap %d), %q (cap %d)", a, cap(a), b, cap(b))
	}
	if unsafe.Pointer(&b[0]) != unsafe.Add(unsafe.Pointer(&a[0]), 3) {
		t.Error("two short copies do not share an array")
	}
	_ = append(a, 'X')
	if string(b) != "defg" {
		t.Errorf("appending to one copy changed the next: %q", b)
	}

	for i := 0; i < 4; i++ { // the fourth does not fit
		c.Copy(make([]byte, chunkSize/4))
	}
	if want := chunkSize - chunkSize/4; len(c.free) != want {
		t.Errorf("after a copy that did not fit, %d bytes free, want a new array's %d", len(c.free), want)
	}
	c.Copy(make([]byte, len(c.free)-10))
	long := bytes.Repeat([]byte{'L'}, chunkSize/4+1)
	if got := c.Copy(long); !bytes.Equal(got, long) || len(c.free) != 10 {
		t.Errorf("a long copy that does not fit: %d bytes back, %d free in the shared array, want %d and 10", len(got), len(c.free), len(long))
	}
}

// TestStringDecodeChunk: StringCodec's chunked form decodes what Decode
// does, into the chunk, and believes no length prefix beyond its segment.
func TestStringDecodeChunk(t *testing.T) {
	var c Chunk
	d := NewDecoder[string](StringCodec{}, &c)
	for _, s := range []string{"", "a", "hello deca", strings.Repeat("x", chunkSize)} {
		seg := make([]byte, StringCodec{}.Size(s)+3) // trailing bytes of a next record
		StringCodec{}.Encode(seg, s)
		got, n := d.Decode(seg)
		if got != s || n != 4+len(s) {
			t.Errorf("%.12q decodes to %.12q, %d bytes", s, got, n)
		}
		clear(seg)
		if got != s {
			t.Errorf("%.12q changed with the bytes it was decoded from", s)
		}
	}
	for _, seg := range [][]byte{
		nil,
		{3, 0, 0},                                // shorter than the prefix
		binary.LittleEndian.AppendUint32(nil, 1), // one byte announced, none there
		append(binary.LittleEndian.AppendUint32(nil, 1<<31), "ab"...), // a length past any page
	} {
		if got, n := d.Decode(seg); got != "" || n != 0 {
			t.Errorf("segment % x decodes to %q, %d bytes consumed, want nothing", seg, got, n)
		}
	}
}

// TestDecoderFallsBack: a codec with no chunked form decodes through its
// own Decode.
func TestDecoderFallsBack(t *testing.T) {
	seg := make([]byte, 20)
	Int64SliceCodec{}.Encode(seg, []int64{4, -2})
	got, n := NewDecoder[[]int64](Int64SliceCodec{}, new(Chunk)).Decode(seg)
	if len(got) != 2 || got[0] != 4 || got[1] != -2 || n != 20 {
		t.Errorf("decoded %v, %d bytes", got, n)
	}
}
