//go:build decapoison && (linux || darwin)

package memory

import (
	"fmt"
	"syscall"
)

// Use-after-release poisoning, a test build (go test -tags decapoison): a
// span is unreadable while the reserve parks it, so a read of a released
// page or slab faults where it would otherwise return whatever the next
// container wrote there.

// poison revokes all access to b's mapping as it is parked.
func poison(b []byte) { protect(b, syscall.PROT_NONE) }

// unpoison makes b's mapping read-write again as it is taken.
func unpoison(b []byte) { protect(b, syscall.PROT_READ|syscall.PROT_WRITE) }

func protect(b []byte, prot int) {
	if err := syscall.Mprotect(whole(b), prot); err != nil {
		panic(fmt.Sprintf("memory: mprotect: %v", err))
	}
}
