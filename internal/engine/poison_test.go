//go:build decapoison

package engine

import (
	"strings"
	"sync"
	"testing"

	"deca/internal/decompose"
)

// TestKeptLentKeyReadsBlank: a pointer-free Map whose function breaks the
// borrowing rule — it keeps its argument's key in captured state — finds
// every kept key blank once the action returns (the decapoison build
// spoils a lent key as its call returns), not a plausible neighbour.
func TestKeptLentKeyReadsBlank(t *testing.T) {
	ctx := testCtx(t, ModeDeca)
	counts := ReduceByKey(Map(Parallelize(ctx, lendWords(2_000, 500), 4), func(w string) decompose.Pair[string, int64] {
		return KV(w, int64(1))
	}), stringOps(2), addI64)
	var mu sync.Mutex
	var kept []string
	if _, err := Count(Map(counts, func(kv decompose.Pair[string, int64]) int64 {
		mu.Lock()
		kept = append(kept, kv.Key)
		mu.Unlock()
		return kv.Value
	})); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 500 {
		t.Fatalf("the Map saw %d keys, want 500", len(kept))
	}
	for _, k := range kept {
		if strings.TrimSpace(k) != "" {
			t.Fatalf("a kept lent key reads %q after the action, want blanks", k)
		}
	}
}
