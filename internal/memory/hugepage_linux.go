package memory

import "syscall"

// adviseHuge asks the kernel to back a chunk with transparent huge pages:
// one fault and one zeroing per 2 MiB instead of per 4 KiB. It is advice on
// our own mapping, effective when the system's THP mode is "always" or
// "madvise"; no system setting is read or changed. A kernel without THP
// refuses it, and the chunk keeps small pages.
func adviseHuge(chunk []byte) { _ = syscall.Madvise(chunk, syscall.MADV_HUGEPAGE) }
