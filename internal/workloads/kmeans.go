package workloads

import (
	"math"
	"slices"

	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/memory"
	"deca/internal/serial"
	"deca/internal/shuffle"
)

// KMeansParams sizes a KMeans run (§6.2): like LR it caches the dataset
// and iterates, but each iteration ends in an aggregated shuffle that
// combines per-center coordinate sums (Table 1's "aggregated" column).
type KMeansParams struct {
	Points     int
	Dim        int
	K          int
	Iterations int
}

// KMeans runs Lloyd's algorithm: cache the vectors (mode-dependent
// representation), then per iteration assign every vector to its nearest
// center and reduce (center → VecSum) through the shuffle. VecSum is
// StaticFixed for a fixed dimension, so Deca's aggregation buffer reuses
// segments in place. The checksum folds the final centers.
func KMeans(cfg Config, params KMeansParams) (Result, error) {
	return run("KMeans", cfg, PlanSpec{Workload: "kmeans", KM: params}, func(ctx *engine.Context) (float64, error) {
		cfg := cfg.withDefaults()
		perPart := max(params.Points/cfg.Partitions, 1)
		vectors := engine.Generate(ctx, cfg.Partitions, func(p int, emit func([]float64)) {
			for v := range datagen.VectorsSeq(cfg.Seed+int64(p), perPart, params.Dim, params.K) {
				if cfg.Mode == engine.ModeSpark { // the object cache keeps the vector past this emit
					v = slices.Clone(v)
				}
				emit(v)
			}
		})

		vectors.Persist(engine.Storage[[]float64]{
			Estimate: func(v []float64) int { return 32 + 8*len(v) },
			Ser:      serial.F64Slice{},
			Codec:    decompose.Float64VecCodec{Dim: params.Dim},
		})
		if err := engine.Materialize(vectors); err != nil {
			return 0, err
		}

		// Deterministic initial centers.
		centers := make([][]float64, params.K)
		for c := range centers {
			centers[c] = make([]float64, params.Dim)
			for j := range centers[c] {
				centers[c][j] = 10 * pseudo(cfg.Seed+int64(c*params.Dim+j))
			}
		}

		ops := engine.PairOps[int32, VecSum]{
			Key: shuffle.Int32Key(),
			KeySer: serial.Func[int32]{
				MarshalFunc:   func(dst []byte, v int32) []byte { return serial.AppendVarint(dst, int64(v)) },
				UnmarshalFunc: func(src []byte) (int32, int) { v, n := serial.Varint(src); return int32(v), n },
			},
			ValSer:    VecSumSer{},
			KeyCodec:  decompose.Int32Codec{},
			ValCodec:  VecSumCodec{Dim: params.Dim},
			EntrySize: func(int32, VecSum) int { return 48 + 8*params.Dim },
		}

		for iter := 0; iter < params.Iterations; iter++ {
			var byCenter map[int32]VecSum
			var err error
			if cfg.Mode == engine.ModeDeca {
				byCenter, err = kmeansStepDeca(ctx, vectors, params, centers)
			} else {
				byCenter, err = kmeansStepObjects(ctx, vectors, ops, centers)
			}
			if err != nil {
				return 0, err
			}
			for c := range centers {
				if s, ok := byCenter[int32(c)]; ok && s.Count > 0 {
					next := make([]float64, params.Dim)
					for j, x := range s.Sum {
						next[j] = x / float64(s.Count)
					}
					centers[c] = next
				}
			}
		}

		var checksum float64
		for c, center := range centers {
			for j, x := range center {
				checksum += x * float64(1+(c+j)%5)
			}
		}
		return checksum, nil
	})
}

// kmeansStepObjects is the Spark/SparkSer iteration: map each vector to
// (nearest center, VecSum) and reduce through the eager-combining shuffle.
// Every combine allocates a fresh VecSum — the boxed-value churn of §4.2.
func kmeansStepObjects(
	ctx *engine.Context,
	vectors *engine.Dataset[[]float64],
	ops engine.PairOps[int32, VecSum],
	centers [][]float64,
) (map[int32]VecSum, error) {
	assigned := engine.Map(vectors, func(v []float64) decompose.Pair[int32, VecSum] {
		best := nearestCenter(v, centers)
		return engine.KV(int32(best), VecSum{Sum: v, Count: 1})
	})
	sums := engine.ReduceByKey(assigned, ops, VecSum.Add)
	byCenter, err := engine.CollectMap(sums)
	if err != nil {
		return nil, err
	}
	ctx.ReleaseShuffle(sums.ID())
	return byCenter, nil
}

// kmeansStepDeca is the transformed iteration: walk the cache pages
// directly, accumulate per-center sums in one flat buffer per task, and
// merge the tiny per-partition results on the driver — no vector objects,
// no boxed combine values, the aggregation "buffer" segments reused in
// place (§4.3.2 applied by the code transformation).
func kmeansStepDeca(
	ctx *engine.Context,
	vectors *engine.Dataset[[]float64],
	params KMeansParams,
	centers [][]float64,
) (map[int32]VecSum, error) {
	dim := params.Dim

	// Each partition's partial is one flat K*(dim+1) buffer, returned as a
	// value so the step works identically when the task runs in another
	// process (the multiproc deployment ships it back as bytes).
	partials, err := engine.RunPartitionsCollect(ctx, vectors.Partitions(), func(p int) ([]float64, error) {
		blk, release, err := engine.DecaBlockFor(vectors, p)
		if err != nil {
			return nil, err
		}
		defer release()
		return kmeansStepBlock(blk.Group(), dim, centers), nil
	})
	if err != nil {
		return nil, err
	}

	byCenter := make(map[int32]VecSum, params.K)
	for c := 0; c < params.K; c++ {
		sum := make([]float64, dim)
		var count int64
		for _, acc := range partials {
			if acc == nil {
				continue
			}
			base := c * (dim + 1)
			for j := 0; j < dim; j++ {
				sum[j] += acc[base+j]
			}
			count += int64(acc[base+dim])
		}
		if count > 0 {
			byCenter[int32(c)] = VecSum{Sum: sum, Count: count}
		}
	}
	return byCenter, nil
}

// kmeansStepBlock is the scan kernel: each record of g — dim coordinates,
// read in place through a typed view as lrGradientBlock reads its own — is
// added to its nearest center's slot of one flat K*(dim+1) accumulator.
func kmeansStepBlock(g *memory.Group, dim int, centers [][]float64) []float64 {
	recSize := 8 * dim
	acc := make([]float64, len(centers)*(dim+1))
	var stack [16]float64 // up to 16 coordinates the scratch stays off the heap
	scratch := stack[:]
	if len(scratch) < dim {
		scratch = make([]float64, dim)
	}
	for pi := 0; pi < g.NumPages(); pi++ {
		page := g.Page(pi)
		for off := 0; off+recSize <= len(page); off += recSize {
			rec := decompose.Float64s(scratch, page[off:off+recSize])
			slot := acc[nearestCenter(rec, centers)*(dim+1):][:dim+1]
			sum := slot[:len(rec)]
			for j, x := range rec {
				sum[j] += x
			}
			slot[dim]++
		}
	}
	return acc
}

// nearestCenter returns the index of the closest center to v.
func nearestCenter(v []float64, centers [][]float64) int {
	best, bestDist := 0, math.Inf(1)
	for c, center := range centers {
		d := 0.0
		for j, x := range v {
			diff := x - center[j]
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}
