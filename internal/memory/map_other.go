//go:build !(linux || darwin)

package memory

import (
	"io"
	"os"
	"unsafe"
)

// mapChunk, where manager memory is not mapped, allocates a chunk from the
// Go heap: n zeroed bytes that start 8-byte aligned. The words are
// allocated as words because only a type's alignment is the language's
// promise (a 13-byte []byte may start anywhere); TestManagerMemoryIsAligned
// holds it to that. Spans the reserve cuts from it start at multiples of
// the OS page size from there, so they are aligned too.
func mapChunk(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// unmapAnon leaves the bytes to the collector.
func unmapAnon([]byte) {}

// mapFile, where files are not mapped, reads the first size bytes of f into
// aligned heap bytes: the same pages behind the same signature, paid for
// with one copy of the file.
func mapFile(f *os.File, size int) ([]byte, error) {
	data := mapChunk(size)
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
