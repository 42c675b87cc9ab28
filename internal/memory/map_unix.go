//go:build linux || darwin

package memory

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// mapChunk is the one place manager memory comes from: n bytes (a whole
// number of huge pages) of zeroed anonymous private memory that start on a
// huge-page boundary, advised to be backed by huge pages (adviseHuge). The
// reserve cuts every page, block and restored page from such a chunk, so
// everything a manager hands out starts on an OS page, and a record whose
// layout is only 8-byte primitives is aligned wherever it lies:
// decompose.Float64s/Int64s can read it in place
// (TestManagerMemoryIsAligned). The memory is not Go heap: the collector
// neither scans it nor counts it toward its next goal, and it lives until
// the reserve unmaps it, not until the collector notices it is
// unreachable.
//
// The mapping is n plus a huge page long and its misaligned ends are
// unmapped at once. They, and every span the reserve unmaps past its cap,
// are parts of a mapping, so they go by a raw munmap: syscall.Munmap takes
// only a whole mapping syscall.Mmap returned.
func mapChunk(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n+hugePage, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("memory: mapping %d bytes: %v", n, err))
	}
	lead := -int(uintptr(unsafe.Pointer(unsafe.SliceData(b)))) & (hugePage - 1)
	unmapAnon(b[:lead])
	unmapAnon(b[lead+n:])
	chunk := b[lead : lead+n : lead+n]
	adviseHuge(chunk)
	return chunk
}

// unmapAnon ends the part s of a chunk: s starts on an OS page and is a
// whole number of them.
func unmapAnon(s []byte) {
	if len(s) == 0 {
		return
	}
	if _, _, errno := syscall.Syscall(syscall.SYS_MUNMAP, uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s)), 0); errno != 0 {
		panic(fmt.Sprintf("memory: munmap: %v", errno))
	}
}

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

// unmap ends a mapping mapFile returned (nil: the empty file mapPath
// mapped nothing for). Unmapping a live mapping of our own cannot fail; if
// it does, the bookkeeping around it is broken.
func unmap(data []byte) {
	if len(data) == 0 {
		return
	}
	if err := syscall.Munmap(data); err != nil {
		panic(fmt.Sprintf("memory: munmap: %v", err))
	}
}
