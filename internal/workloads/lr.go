package workloads

import (
	"math"
	"slices"

	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/memory"
)

// LRParams sizes a logistic-regression run (§6.2): the paper sweeps the
// cached dataset size (to move from GC-light to GC-thrashing to spilling
// regimes) and uses 10-dim synthetic and 4096-dim real vectors.
type LRParams struct {
	Points     int
	Dim        int
	Iterations int
}

// LogisticRegression runs the Figure 1 program: parse and cache the
// training points, then iterate gradient descent over the cache. The
// cache representation follows the mode — exactly the §6.2 comparison:
//
//	Spark:    []LabeledPoint objects (GC traces every point every cycle)
//	SparkSer: serialized bytes, deserialized into fresh objects per pass
//	Deca:     StaticFixed page layout; the gradient loop reads each record
//	          in place, as the floats it is, through a typed view of the
//	          page (lrGradientBlock — the transformed code of Figure 12)
//
// The checksum is the final weight-vector norm; modes agree to floating-
// point tolerance (cross-partition reduction order is scheduler-driven).
func LogisticRegression(cfg Config, params LRParams) (Result, error) {
	return run("LR", cfg, PlanSpec{Workload: "lr", LR: params}, func(ctx *engine.Context) (float64, error) {
		cfg := cfg.withDefaults()
		perPart := max(params.Points/cfg.Partitions, 1)
		points := engine.Generate(ctx, cfg.Partitions, func(p int, emit func(datagen.LabeledPoint)) {
			for pt := range datagen.PointsSeq(cfg.Seed+int64(p), perPart, params.Dim) {
				if cfg.Mode == engine.ModeSpark { // the object cache keeps the point past this emit
					pt.Features = slices.Clone(pt.Features)
				}
				emit(pt)
			}
		})

		points.Persist(engine.Storage[datagen.LabeledPoint]{
			Estimate: lpEstimate, Ser: LabeledPointSer{}, Codec: LabeledPointCodec{Dim: params.Dim},
		})
		if err := engine.Materialize(points); err != nil {
			return 0, err
		}

		weights := make([]float64, params.Dim)
		for i := range weights {
			weights[i] = 2*pseudo(cfg.Seed+int64(i)) - 1
		}

		for iter := 0; iter < params.Iterations; iter++ {
			var gradient []float64
			var err error
			if cfg.Mode == engine.ModeDeca {
				gradient, err = lrGradientDeca(ctx, points, weights)
			} else {
				gradient, err = lrGradientObjects(points, weights)
			}
			if err != nil {
				return 0, err
			}
			for i := range weights {
				weights[i] -= gradient[i] / float64(params.Points)
			}
		}

		var norm float64
		for _, w := range weights {
			norm += w * w
		}
		return math.Sqrt(norm), nil
	})
}

// lrGradientObjects is the lines 21-25 map/reduce of Figure 1 over
// materialized LabeledPoint objects: each point contributes
// (1/(1+exp(-y·w·x)) - 1)·y·x, summed across the dataset. Each map call
// allocates a fresh gradient vector — the temporary DenseVector objects
// whose reclamation triggers the GC churn of §2.2.
func lrGradientObjects(points *engine.Dataset[datagen.LabeledPoint], weights []float64) ([]float64, error) {
	contribs := engine.Map(points, func(p datagen.LabeledPoint) []float64 {
		dot := 0.0
		for i, x := range p.Features {
			dot += weights[i] * x
		}
		factor := (1/(1+math.Exp(-p.Label*dot)) - 1) * p.Label
		out := make([]float64, len(p.Features))
		for i, x := range p.Features {
			out[i] = factor * x
		}
		return out
	})
	grad, ok, err := engine.Reduce(contribs, func(a, b []float64) []float64 {
		out := make([]float64, len(a))
		for i := range a {
			out[i] = a[i] + b[i]
		}
		return out
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		return make([]float64, len(weights)), nil
	}
	return grad, nil
}

// lrGradientDeca is the transformed computation of Figure 12: one task per
// cache block runs lrGradientBlock over the block's raw pages — no
// LabeledPoint or gradient objects exist at all.
func lrGradientDeca(
	ctx *engine.Context,
	points *engine.Dataset[datagen.LabeledPoint],
	weights []float64,
) ([]float64, error) {
	// Per-partition partials come back as values (not closure side
	// effects) so the gradient step works identically when tasks run in
	// executor processes.
	partial, err := engine.RunPartitionsCollect(ctx, points.Partitions(), func(p int) ([]float64, error) {
		blk, release, err := engine.DecaBlockFor(points, p)
		if err != nil {
			return nil, err
		}
		defer release()
		return lrGradientBlock(blk.Group(), weights), nil
	})
	if err != nil {
		return nil, err
	}

	grad := make([]float64, len(weights))
	for _, acc := range partial {
		if acc == nil {
			continue
		}
		for i, x := range acc {
			grad[i] += x
		}
	}
	return grad, nil
}

// lrGradientBlock is the scan kernel: each record of g — label, then
// len(weights) features, LabeledPointCodec's layout — is read in place
// through a typed view of its page; scratch is written only where records
// cannot be viewed (DESIGN.md "Typed views"). The order of every sum is
// frozen: job checksums are compared bit for bit.
//
// The main loop reads four records abreast: their four dots are independent
// chains, their four Exp calls do not wait on each other, and acc is loaded
// and stored once per four records. Each dot still sums in feature order and
// each acc[i] still receives its terms in record order, so every operation
// has the operands it has one record at a time. The 0-3 records left on a
// page go through the one-record loop after it.
func lrGradientBlock(g *memory.Group, weights []float64) []float64 {
	dim := len(weights)
	recSize := 8 + 8*dim
	acc := make([]float64, dim)
	var stack [4 * 17]float64 // up to 16 features the scratch stays off the heap
	scratch := stack[:]
	if len(scratch) < 4*(1+dim) {
		scratch = make([]float64, 4*(1+dim))
	}
	for pi := 0; pi < g.NumPages(); pi++ {
		page := g.Page(pi)
		off := 0
		for ; off+4*recSize <= len(page); off += 4 * recSize {
			recs := decompose.Float64s(scratch, page[off:off+4*recSize])
			l0, x0 := recs[0], recs[1:][:dim]
			l1, x1 := recs[1+dim], recs[2+dim:][:dim]
			l2, x2 := recs[2+2*dim], recs[3+2*dim:][:dim]
			l3, x3 := recs[3+3*dim], recs[4+3*dim:][:dim]
			d0, d1, d2, d3 := 0.0, 0.0, 0.0, 0.0
			for i, w := range weights {
				d0 += w * x0[i]
				d1 += w * x1[i]
				d2 += w * x2[i]
				d3 += w * x3[i]
			}
			f0 := (1/(1+math.Exp(-l0*d0)) - 1) * l0
			f1 := (1/(1+math.Exp(-l1*d1)) - 1) * l1
			f2 := (1/(1+math.Exp(-l2*d2)) - 1) * l2
			f3 := (1/(1+math.Exp(-l3*d3)) - 1) * l3
			for i := range acc {
				a := acc[i]
				a += f0 * x0[i]
				a += f1 * x1[i]
				a += f2 * x2[i]
				a += f3 * x3[i]
				acc[i] = a
			}
		}
		for ; off+recSize <= len(page); off += recSize {
			rec := decompose.Float64s(scratch, page[off:off+recSize])
			label, x := rec[0], rec[1:][:dim]
			dot := 0.0
			for i, w := range weights {
				dot += w * x[i]
			}
			factor := (1/(1+math.Exp(-label*dot)) - 1) * label
			acc := acc[:len(x)]
			for i, xi := range x {
				acc[i] += factor * xi
			}
		}
	}
	return acc
}

// pseudo is a tiny deterministic [0,1) hash for reproducible initial
// weights across modes.
func pseudo(x int64) float64 {
	u := uint64(x) * 0x9e3779b97f4a7c15
	u ^= u >> 33
	u *= 0xc4ceb9fe1a85ec53
	u ^= u >> 29
	return float64(u>>11) / float64(1<<53)
}
