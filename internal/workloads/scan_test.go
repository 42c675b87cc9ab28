package workloads

import (
	"fmt"
	"iter"
	"math"
	"testing"

	"deca/internal/cache"
	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/memory"
	"deca/internal/obs"
)

// The scan kernels read records through typed page views; these tests pin
// them, bit for bit, to references that decode every record with the codec.

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// scanManagers are the page shapes a kernel must not care about: 64-byte
// pages make every record of 8 or 10 dimensions an oversized page of its own
// and pack four 1-dimensional ones to a page.
func scanManagers() map[string]*memory.Manager {
	return map[string]*memory.Manager{
		"64-byte pages": memory.NewManager(64, 0),
		"default pages": memory.NewManager(0, 0),
	}
}

// scanWeights and scanCenters are the jobs' own starting points (lr.go,
// kmeans.go) at seed 0.
func scanWeights(dim int) []float64 {
	weights := make([]float64, dim)
	for i := range weights {
		weights[i] = 2*pseudo(int64(i)) - 1
	}
	return weights
}

func scanCenters(k, dim int) [][]float64 {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = 10 * pseudo(int64(c*dim+j))
		}
	}
	return centers
}

// eachRoundTrip runs check on the block as built and again after a swap
// round trip, when every page is a view of the swap file's mapping.
func eachRoundTrip[T any](t *testing.T, blk *cache.DecaBlock[T], check func(what string)) {
	t.Helper()
	check("built")
	if err := blk.SwapOut(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := blk.SwapIn(); err != nil {
		t.Fatal(err)
	}
	check("swapped")
}

// The kernel reads four records abreast and the rest one at a time: 256-259
// points leave each tail, 0-3, on a default page, and 64-byte pages hold one
// to four 1-dimensional records, or one record of 8 or 10 dimensions.
func TestDecaGradientMatchesCodec(t *testing.T) {
	for name, mem := range scanManagers() {
		for _, n := range []int{256, 257, 258, 259} {
			for _, dim := range []int{1, 8, 10, 17} {
				points := datagen.Points(int64(dim), n, dim)
				weights := scanWeights(dim)
				blk := cache.NewDecaBlock(mem, LabeledPointCodec{Dim: dim}, points)
				eachRoundTrip(t, blk, func(what string) {
					want := make([]float64, dim)
					blk.Each(func(p datagen.LabeledPoint) bool {
						dot := 0.0
						for i, x := range p.Features {
							dot += weights[i] * x
						}
						factor := (1/(1+math.Exp(-p.Label*dot)) - 1) * p.Label
						for i, x := range p.Features {
							want[i] += factor * x
						}
						return true
					})
					what = fmt.Sprintf("%s, %d points of %d, %s: gradient", name, n, dim, what)
					sameBits(t, what, lrGradientBlock(blk.Group(), weights), want)
				})
				blk.Drop()
			}
		}
		if s := mem.Counters(); s[obs.PageBytesInUse] != 0 || s[obs.PageGroupsLive] != 0 {
			t.Errorf("%s: manager still holds %+v", name, s)
		}
	}
}

func TestDecaKMeansStepMatchesCodec(t *testing.T) {
	const k = 4
	for name, mem := range scanManagers() {
		for _, dim := range []int{1, 8, 10, 17} {
			vectors := datagen.Vectors(int64(dim), 257, dim, k)
			centers := scanCenters(k, dim)
			blk := cache.NewDecaBlock(mem, decompose.Float64VecCodec{Dim: dim}, vectors)
			eachRoundTrip(t, blk, func(what string) {
				want := make([]float64, k*(dim+1))
				blk.Each(func(v []float64) bool {
					base := nearestCenter(v, centers) * (dim + 1)
					for j, x := range v {
						want[base+j] += x
					}
					want[base+dim]++
					return true
				})
				sameBits(t, name+", "+what+": sums", kmeansStepBlock(blk.Group(), dim, centers), want)
			})
			blk.Drop()
		}
	}
}

// scanPage builds a block of one default-size page full of records;
// records(n) yields the n that fit.
func scanPage[T any](b *testing.B, codec decompose.Codec[T], records func(n int) iter.Seq[T]) *cache.DecaBlock[T] {
	blk := cache.BuildDecaBlock(memory.NewManager(0, 0), codec, records(memory.DefaultPageSize/codec.FixedSize()))
	b.Cleanup(blk.Drop)
	if blk.Group().NumPages() != 1 {
		b.Fatalf("%d pages, want 1", blk.Group().NumPages())
	}
	return blk
}

var scanSink []float64

// BenchmarkLRGradientScan is the lr-cache inner loop over one 1 MiB page of
// 10-dimensional points (bench/e2e/spec.go's shape).
func BenchmarkLRGradientScan(b *testing.B) {
	const dim = 10
	blk := scanPage(b, LabeledPointCodec{Dim: dim}, func(n int) iter.Seq[datagen.LabeledPoint] {
		return datagen.PointsSeq(1, n, dim)
	})
	weights := scanWeights(dim)
	for b.Loop() {
		scanSink = lrGradientBlock(blk.Group(), weights)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Count()), "ns/rec")
}

// BenchmarkKMeansScan is one assignment pass over one 1 MiB page of
// 10-dimensional vectors against 8 centers.
func BenchmarkKMeansScan(b *testing.B) {
	const dim, k = 10, 8
	blk := scanPage(b, decompose.Float64VecCodec{Dim: dim}, func(n int) iter.Seq[[]float64] {
		return datagen.VectorsSeq(1, n, dim, k)
	})
	centers := scanCenters(k, dim)
	for b.Loop() {
		scanSink = kmeansStepBlock(blk.Group(), dim, centers)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blk.Count()), "ns/rec")
}
