//go:build !race

package decompose

import (
	"fmt"
	"testing"
)

// TestDecoderAllocBudget: decoding n short strings through one decoder
// allocates an array per chunkSize of their bytes, not a string apiece (the
// race detector changes allocation counts, so plain builds only).
func TestDecoderAllocBudget(t *testing.T) {
	const n = 20_000
	var segs [][]byte
	size := 0
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("word-%d", i)
		seg := make([]byte, StringCodec{}.Size(s))
		StringCodec{}.Encode(seg, s)
		segs = append(segs, seg)
		size += len(s)
	}
	got := testing.AllocsPerRun(5, func() {
		d := NewDecoder[string](StringCodec{}, new(Chunk))
		for _, seg := range segs {
			d.Decode(seg)
		}
	})
	if budget := float64((size+chunkSize-1)/chunkSize + 2); got > budget {
		t.Errorf("decoding %d strings (%d bytes) took %.0f allocations, budget %.0f", n, size, got, budget)
	}
}
