//go:build !race

package workloads

import (
	"testing"

	"deca/internal/cache"
	"deca/internal/datagen"
)

// TestLRGradientAllocBudget: the LR scan kernel allocates its accumulator and
// its scratch, and nothing per page or per record, whatever the page shape
// (the race detector changes allocation counts, so plain builds only).
func TestLRGradientAllocBudget(t *testing.T) {
	const dim, budget = 10, 2
	weights := scanWeights(dim)
	for name, mem := range scanManagers() {
		blk := cache.NewDecaBlock(mem, LabeledPointCodec{Dim: dim}, datagen.Points(1, 1_000, dim))
		got := testing.AllocsPerRun(20, func() { scanSink = lrGradientBlock(blk.Group(), weights) })
		blk.Drop()
		if got > budget {
			t.Errorf("%s: lrGradientBlock took %.0f allocations, budget %d", name, got, budget)
		}
	}
}
