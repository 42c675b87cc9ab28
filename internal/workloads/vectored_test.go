package workloads

import (
	"testing"

	"deca/internal/engine"
)

// The acceptance bar of the vectored data plane: serving shuffle frames
// as page segments (writev straight from the pinned group, sendfile for
// spill runs) must be invisible to results. WC and PR run byte-identical
// against the buffered Encode baseline on both the in-process and TCP
// transports, and the vectored runs must actually exercise the zero-copy
// path.
func TestVectoredServeEquivalence(t *testing.T) {
	type job struct {
		name string
		// exact requires bit-equal checksums: WC sums integer counts, so any
		// wire corruption shows. PR sums floats whose merge order varies with
		// fetch arrival, so it gets the standard tolerance instead.
		exact bool
		run   func(cfg Config) (Result, error)
	}
	jobs := []job{
		{"WC", true, func(cfg Config) (Result, error) {
			return WordCount(cfg, WCParams{DistinctKeys: 2000, WordsPerLine: 8, Lines: 3000})
		}},
		{"PR", false, func(cfg Config) (Result, error) {
			return PageRank(cfg, GraphParams{Vertices: 500, Edges: 4000, Skew: 1.1, Iterations: 3})
		}},
	}
	for _, kind := range []engine.TransportKind{engine.TransportInProcess, engine.TransportTCP} {
		for _, j := range jobs {
			t.Run(j.name+"/"+kind.String(), func(t *testing.T) {
				cfg := Config{
					Mode: engine.ModeDeca, NumExecutors: 4, Parallelism: 2, Partitions: 8,
					TransportKind: kind, SpillDir: t.TempDir(), Seed: 1,
				}
				cfg.DisableVectoredServe = true
				buffered, err := j.run(cfg)
				if err != nil {
					t.Fatalf("buffered: %v", err)
				}
				cfg.DisableVectoredServe = false
				vectored, err := j.run(cfg)
				if err != nil {
					t.Fatalf("vectored: %v", err)
				}
				if j.exact && vectored.Checksum != buffered.Checksum {
					t.Errorf("checksum: vectored %v != buffered %v", vectored.Checksum, buffered.Checksum)
				} else if !approxEqual(vectored.Checksum, buffered.Checksum) {
					t.Errorf("checksum: vectored %v !~ buffered %v", vectored.Checksum, buffered.Checksum)
				}
				if buffered.PagesServedZeroCopy != 0 {
					t.Errorf("buffered run served %d pages zero-copy", buffered.PagesServedZeroCopy)
				}
				if vectored.PagesServedZeroCopy == 0 {
					t.Error("vectored run served no pages zero-copy")
				}
				if vectored.ServeUserspaceCopyBytes >= buffered.ServeUserspaceCopyBytes {
					t.Errorf("vectored run staged %d bytes in userspace, buffered %d — expected fewer",
						vectored.ServeUserspaceCopyBytes, buffered.ServeUserspaceCopyBytes)
				}
			})
		}
	}
}

// Spill-backed outputs must serve identically through the sendfile path:
// WC under a forced shuffle-spill threshold, vectored against buffered,
// with spill bytes actually crossing the TCP transport via sendfile.
func TestVectoredServeSpillEquivalence(t *testing.T) {
	params := WCParams{DistinctKeys: 4000, WordsPerLine: 8, Lines: 6000}
	cfg := Config{
		Mode: engine.ModeDeca, NumExecutors: 2, Parallelism: 2, Partitions: 4,
		TransportKind: engine.TransportTCP, SpillDir: t.TempDir(), Seed: 1,
		ShuffleSpillThreshold: 16 << 10,
	}
	cfg.DisableVectoredServe = true
	buffered, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("buffered: %v", err)
	}
	cfg.DisableVectoredServe = false
	vectored, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("vectored: %v", err)
	}
	if vectored.Checksum != buffered.Checksum {
		t.Errorf("checksum: vectored %v != buffered %v", vectored.Checksum, buffered.Checksum)
	}
	if vectored.ShuffleSpillBytes == 0 {
		t.Fatal("threshold did not force shuffle spills; the sendfile path was not exercised")
	}
	if vectored.BytesSendfile == 0 {
		t.Error("vectored run shipped no spill bytes via sendfile")
	}
}

// TestMultiprocVectoredServe: the vectored data plane across two real
// deca-executor processes produces the buffered baseline's exact WC
// answer, with the executors' serve counters synced back to the driver.
func TestMultiprocVectoredServe(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns executor processes")
	}
	withDeadline(t)
	params := WCParams{DistinctKeys: 2_000, WordsPerLine: 8, Lines: 3_000}
	cfg := multiprocCfg(t, 2)
	cfg.DisableVectoredServe = true
	buffered, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("buffered: %v", err)
	}
	cfg = multiprocCfg(t, 2)
	cfg.DisableVectoredServe = false
	vectored, err := WordCount(cfg, params)
	if err != nil {
		t.Fatalf("vectored: %v", err)
	}
	if vectored.Checksum != buffered.Checksum {
		t.Errorf("checksum: vectored %v != buffered %v", vectored.Checksum, buffered.Checksum)
	}
	if vectored.PagesServedZeroCopy == 0 {
		t.Error("vectored multiproc run synced no zero-copy serve pages to the driver")
	}
}
