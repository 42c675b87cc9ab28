//go:build unix

package gcstats

import (
	"syscall"
	"time"
)

// readRusage fills s's kernel figures from one getrusage(RUSAGE_SELF): the
// minor faults — a first touch of a page, which the kernel zeroes — and the
// system CPU, where that zeroing and every mmap and munmap are paid.
func readRusage(s *Snapshot) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return
	}
	s.MinorFaults = uint64(ru.Minflt)
	s.SysCPU = time.Duration(ru.Stime.Nano())
}
