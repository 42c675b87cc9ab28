//go:build decapoison

package datagen

import "math"

// Borrowed-record poisoning, a test build (go test -tags decapoison): a
// stream spoils its reused buffer as soon as the consumer's yield returns,
// so a consumer that kept a line or a vector past its emit computes on
// blanks or NaN, and its checksum moves, instead of reading the next
// record's plausible values.

// spoilLine blanks a yielded line: a kept line splits into no words, and a
// kept word trims to the empty key.
func spoilLine(b []byte) {
	for i := range b {
		b[i] = ' '
	}
}

// spoilVector fills a yielded vector with NaN, which every sum it reaches
// carries to the checksum.
func spoilVector(f []float64) {
	for i := range f {
		f[i] = math.NaN()
	}
}
