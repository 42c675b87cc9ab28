//go:build unix

package memory

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// newBytes is the one place manager memory comes from: a zero-length,
// zeroed byte slice of capacity n, the front of an anonymous private
// mapping of its own. Everything the manager hands out is cut from the
// front of such a slice — a page, a block, a restored page — and
// Group.Alloc packs a page from offset 0; a mapping starts on an OS page,
// so a record whose layout is only 8-byte primitives is aligned wherever it
// lies, and decompose.Float64s/Int64s can read it in place
// (TestManagerMemoryIsAligned). The mapping is not Go heap: the collector
// neither scans it nor counts it toward its next goal, and it lives until
// freeBytes, not until the collector notices it is unreachable. A request
// below the OS page size still costs an OS page.
func newBytes(n int) []byte {
	b, err := syscall.Mmap(-1, 0, mappedLen(n), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("memory: mapping %d bytes: %v", n, err))
	}
	return b[:0:n]
}

// freeBytes unmaps the mapping newBytes cut b from: b's lifetime, and that
// of every slice of it, is over.
func freeBytes(b []byte) { unmap(whole(b)) }

// whole is the entire mapping b is the front of.
func whole(b []byte) []byte { return unsafe.Slice(unsafe.SliceData(b), mappedLen(cap(b))) }

var osPage = syscall.Getpagesize()

// mappedLen rounds n up to whole OS pages.
func mappedLen(n int) int { return (n + osPage - 1) &^ (osPage - 1) }

// mapFile returns the first size bytes of f as a read-only shared mapping:
// page-aligned, backed by the page cache, reclaimed by the kernel under
// pressure without being written anywhere (the pages are clean).
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

// fileSize is f's size on disk, read by an fstat into the stack: no
// FileInfo on the heap per mapping.
func fileSize(f *os.File) (int64, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return 0, err
	}
	return st.Size, nil
}

// unmap ends a mapping mapFile or newBytes returned (nil: the empty file
// mapPath mapped nothing for). Unmapping a live mapping of our own cannot
// fail; if it does, the bookkeeping around it is broken.
func unmap(data []byte) {
	if len(data) == 0 {
		return
	}
	if err := syscall.Munmap(data); err != nil {
		panic(fmt.Sprintf("memory: munmap: %v", err))
	}
}
