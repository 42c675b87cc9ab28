//go:build !unix

package memory

import (
	"io"
	"os"
	"unsafe"
)

// newBytes, where there is no mmap, allocates manager memory from the Go
// heap: a zero-length, zeroed byte slice of capacity n that starts 8-byte
// aligned. The words are allocated as words because only a type's
// alignment is the language's promise (a 13-byte []byte may start
// anywhere); TestManagerMemoryIsAligned holds it to that.
func newBytes(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)[:0]
}

// freeBytes leaves the bytes to the collector.
func freeBytes([]byte) {}

// mapFile, where there is no mmap, reads the first size bytes of f into
// aligned heap bytes: the same pages behind the same signature, paid for
// with one copy of the file.
func mapFile(f *os.File, size int) ([]byte, error) {
	data := newBytes(size)[:size]
	_, err := io.ReadFull(f, data)
	return data, err
}

// fileSize is f's size on disk.
func fileSize(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// unmap leaves the bytes to the collector.
func unmap([]byte) {}
