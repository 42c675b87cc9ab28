//go:build decapoison

package decompose

// Lent-value poisoning, a test build (go test -tags decapoison): a lending
// Chunk blanks what it lent at each Reuse, so a consumer that kept a lent
// key past its call reads spaces (a kept WordCount key trims to the empty
// word) and its job's checksum moves, instead of reading the next key's
// plausible bytes.
func spoil(b []byte) {
	for i := range b {
		b[i] = ' '
	}
}
