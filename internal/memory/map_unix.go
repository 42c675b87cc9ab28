//go:build unix

package memory

import (
	"fmt"
	"os"
	"syscall"
)

// mapFile returns the first size bytes of f as a read-only shared mapping:
// page-aligned, backed by the page cache, reclaimed by the kernel under
// pressure without being written anywhere (the pages are clean).
func mapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapFile ends a mapping mapFile returned. Unmapping a live mapping of
// our own cannot fail; if it does, the bookkeeping around it is broken.
func unmapFile(data []byte) {
	if err := syscall.Munmap(data); err != nil {
		panic(fmt.Sprintf("memory: munmap: %v", err))
	}
}
