// Package shuffle implements two of the three shuffle-buffer shapes the
// paper's lifetime analysis distinguishes (§4.2):
//
//  1. hash-based buffers with eager combining (reduceByKey): each combine
//     kills the old Value and creates a new one, so Values are short-lived
//     under Spark; Deca reuses the page segment in place when the Value is
//     a StaticFixed type (§4.3.2);
//  2. hash-based buffers for grouping (groupByKey): Value lists only grow,
//     so references live until the buffer dies; the list type is Variable
//     while being built (the partially decomposable case of Figure 7(b)),
//     which Deca keeps as a chain of value segments in the pages;
//  3. sort-based buffers (sortByKey): records are immutable once inserted;
//     Deca keeps raw records in pages and sorts a pointer array
//     (Figure 6(b)). This shape is described, not built: no job here sorts
//     (DESIGN.md, "Figure 6(b) is described, not built").
//
// Each built shape has an object-based implementation (Spark semantics:
// boxed values, fresh allocations per combine) and a Deca implementation
// (page-decomposed). Buffers spill to disk when asked (Appendix C): object
// buffers serialize, Deca buffers write raw page-encoded records.
package shuffle

// Key bundles the per-key-type operations a shuffle needs: a partitioning
// hash.
type Key[K comparable] struct {
	Hash func(K) uint32
}

// StringKey returns Key ops for string keys. The hash is FNV-1a — a
// fixed function, never a per-process random seed: lineage recovery
// re-runs a map task in whatever process survives, and the re-run's
// bucketing must agree with the outputs other reduce tasks already
// merged, or records silently migrate between reduce partitions
// (Spark's determinism requirement on partitioners).
func StringKey() Key[string] {
	return Key[string]{Hash: fnv32a}
}

// fnv32a is the 32-bit FNV-1a hash.
//
//deca:pure
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Int64Key returns Key ops for int64 keys.
func Int64Key() Key[int64] {
	return Key[int64]{
		Hash: func(v int64) uint32 {
			x := uint64(v)
			// splitmix64 finalizer: avalanche all bits.
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			x *= 0x94d049bb133111eb
			x ^= x >> 31
			return uint32(x)
		},
	}
}

// Int32Key returns Key ops for int32 keys.
func Int32Key() Key[int32] {
	i64 := Int64Key()
	return Key[int32]{
		Hash: func(v int32) uint32 { return i64.Hash(int64(v)) },
	}
}

// Partition maps a key hash to one of n reduce partitions: hash mod n,
// which for a power of two is a mask, not a division.
func Partition(hash uint32, n int) int {
	if n&(n-1) == 0 {
		return int(hash & uint32(n-1))
	}
	return int(hash % uint32(n))
}
