//go:build decapoison

package decompose

import "testing"

// TestLentValueReadsBlank is the decapoison build's check on a lending
// Chunk: a string decoded through it and kept past its loan reads blanks
// once Reuse ends the loan, where an owned one keeps its bytes.
func TestLentValueReadsBlank(t *testing.T) {
	seg := make([]byte, StringCodec{}.Size("word"))
	StringCodec{}.Encode(seg, "word")
	lending, owning := LendingChunk(), new(Chunk)
	lent, _ := NewDecoder[string](StringCodec{}, lending).Decode(seg)
	owned, _ := NewDecoder[string](StringCodec{}, owning).Decode(seg)
	if lent != "word" || owned != "word" {
		t.Fatalf("decoded %q lent and %q owned", lent, owned)
	}
	lending.Reuse()
	owning.Reuse()
	if lent != "    " || owned != "word" {
		t.Errorf("after Reuse a kept lent string reads %q, an owned one %q; want blanks and %q", lent, owned, "word")
	}
}
