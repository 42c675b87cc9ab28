//go:build !race

package workloads

import (
	"testing"

	"deca/internal/cache"
	"deca/internal/datagen"
	"deca/internal/decompose"
)

// TestLRGradientAllocBudget: the scan kernels allocate the accumulator they
// return and nothing else — no scratch for a record up to 16 features or
// coordinates, nothing per page or per record — whatever the page shape
// (the race detector changes allocation counts, so plain builds only).
func TestLRGradientAllocBudget(t *testing.T) {
	const dim, k = 10, 8
	weights, centers := scanWeights(dim), scanCenters(k, dim)
	for name, mem := range scanManagers() {
		points := cache.NewDecaBlock(mem, LabeledPointCodec{Dim: dim}, datagen.Points(1, 1_000, dim))
		vectors := cache.NewDecaBlock(mem, decompose.Float64VecCodec{Dim: dim}, datagen.Vectors(1, 1_000, dim, k))
		lr := testing.AllocsPerRun(20, func() { scanSink = lrGradientBlock(points.Group(), weights) })
		kmeans := testing.AllocsPerRun(20, func() { scanSink = kmeansStepBlock(vectors.Group(), dim, centers) })
		points.Drop()
		vectors.Drop()
		if lr != 1 || kmeans != 1 {
			t.Errorf("%s: lrGradientBlock took %.0f allocations and kmeansStepBlock %.0f, want 1 each (the accumulator)", name, lr, kmeans)
		}
	}
}
