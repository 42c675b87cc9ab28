//go:build !unix

package gcstats

// readRusage leaves the kernel figures 0 where there is no getrusage.
func readRusage(*Snapshot) {}
