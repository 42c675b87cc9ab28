//go:build !linux

package memory

// adviseHuge is Linux's transparent-huge-page advice; elsewhere a chunk
// keeps the system's page size.
func adviseHuge([]byte) {}
