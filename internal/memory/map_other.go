//go:build !unix

package memory

import (
	"io"
	"os"
)

// mapFile, where there is no mmap, reads the first size bytes of f into
// aligned heap bytes: the same pages behind the same signature, paid for
// with one copy of the file.
func mapFile(f *os.File, size int) ([]byte, error) {
	data := newBytes(size)[:size]
	_, err := io.ReadFull(f, data)
	return data, err
}

// unmapFile leaves the bytes to the collector.
func unmapFile([]byte) {}
