package bench

import (
	"fmt"
	"math"
	"time"

	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/memory"
	"deca/internal/shuffle"
	"deca/internal/workloads"
)

// MergeZeroCopy is the reduce-merge experiment this reproduction adds on
// top of the paper's figures: the §6.1 "directly outputting the raw
// bytes" claim applied to the reduce side of the shuffle. Part one times
// the merge step itself at the buffer level — M map outputs folded into
// one reduce buffer, zero-copy page adoption vs the drain/re-Put
// baseline — on a collision-light, PageRank-groupBy-shaped key
// distribution (the drain rows are the baseline; no production knob
// selects that path any more). Part two runs PageRank end to end across
// modes and executor counts, asserting the answer never changes.
func MergeZeroCopy(o Options) (*Report, error) {
	o = o.withDefaults()
	rep := &Report{
		ID:    "merge",
		Title: "Zero-copy reduce merge vs drain/re-Put, and pipelined fetch",
		PaperClaim: "Deca containers move as raw pages (§6.1, Fig. 7(a) depPages): adopting " +
			"map-output page groups by reference beats record-by-record re-aggregation, " +
			"most on collision-light grouped shuffles",
	}

	if err := mergeBufferRows(o, rep); err != nil {
		return nil, err
	}
	if err := mergeClusterRows(o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// mergeBufferRows times the isolated merge step per sink shape. Source
// construction happens outside the timed section. For the hash-shaped
// sinks (group, agg) both merge strategies leave the destination in an
// equivalent fully-merged state, so the timed region is the merge alone;
// the sort merge defers its sorting to the first drain, so there the
// timed region is merge plus one full DrainSorted on both sides — the
// zero-copy path pays its lazy sort inside the measurement.
func mergeBufferRows(o Options, rep *Report) error {
	const sources = 8
	recs := o.scaled(1_000_000) / sources
	if recs < 2048 {
		recs = 2048
	}

	// DecaGroup: the PageRank groupBy shape — many values per key, keys
	// mostly unique to one map output (collision-light).
	groupSrcs := func(m *memory.Manager) []*shuffle.DecaGroup[int64, int64] {
		out := make([]*shuffle.DecaGroup[int64, int64], sources)
		for s := range out {
			out[s] = shuffle.NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
			for i := 0; i < recs; i++ {
				out[s].Put(int64(s*recs/16+i%(recs/16+1)), int64(i))
			}
		}
		return out
	}
	m := memory.NewManager(0, 0)
	defer m.Close()
	zcSrcs, drainSrcs := groupSrcs(m), groupSrcs(m)
	zc, err := timeIt(func() error {
		dst := shuffle.NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
		defer dst.Release()
		for _, src := range zcSrcs {
			if err := dst.MergeFrom(src); err != nil {
				return err
			}
			src.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	drain, err := timeIt(func() error {
		dst := shuffle.NewDecaGroup[int64, int64](m, decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
		defer dst.Release()
		for _, src := range drainSrcs {
			err := src.Drain(func(k int64, vs []int64) bool {
				for _, v := range vs {
					dst.Put(k, v)
				}
				return true
			})
			if err != nil {
				return err
			}
			src.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	recordMerge(rep, "group-merge", zc, drain)
	rep.add("group-merge     %d outputs x %-7d recs  zero-copy=%-9s drain=%-9s speedup=%s",
		sources, recs, fmtDur(zc), fmtDur(drain), speedup(drain, zc))

	// DecaAgg: eager-combining shape; disjoint key ranges per source.
	aggSrcs := func(m *memory.Manager) ([]*shuffle.DecaAgg[int64, int64], error) {
		out := make([]*shuffle.DecaAgg[int64, int64], sources)
		for s := range out {
			b, err := shuffle.NewDecaAgg[int64, int64](m, func(x, y int64) int64 { return x + y },
				decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
			if err != nil {
				return nil, err
			}
			for i := 0; i < recs; i++ {
				b.Put(int64(s*recs+i), int64(i))
			}
			out[s] = b
		}
		return out, nil
	}
	zcAgg, err := aggSrcs(m)
	if err != nil {
		return err
	}
	drainAgg, err := aggSrcs(m)
	if err != nil {
		return err
	}
	zc, err = timeIt(func() error {
		dst, err := shuffle.NewDecaAgg[int64, int64](m, func(x, y int64) int64 { return x + y },
			decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
		if err != nil {
			return err
		}
		defer dst.Release()
		for _, src := range zcAgg {
			if err := dst.MergeFrom(src); err != nil {
				return err
			}
			src.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	drain, err = timeIt(func() error {
		dst, err := shuffle.NewDecaAgg[int64, int64](m, func(x, y int64) int64 { return x + y },
			decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
		if err != nil {
			return err
		}
		defer dst.Release()
		for _, src := range drainAgg {
			err := src.Drain(func(k, v int64) bool { dst.Put(k, v); return true })
			if err != nil {
				return err
			}
			src.Release()
		}
		return nil
	})
	if err != nil {
		return err
	}
	recordMerge(rep, "agg-merge", zc, drain)
	rep.add("agg-merge       %d outputs x %-7d recs  zero-copy=%-9s drain=%-9s speedup=%s",
		sources, recs, fmtDur(zc), fmtDur(drain), speedup(drain, zc))

	// DecaSort: pointer-array adoption vs merge-sorted re-insertion.
	less := func(x, y int64) bool { return x < y }
	sortSrcs := func(m *memory.Manager) []*shuffle.DecaSort[int64, int64] {
		out := make([]*shuffle.DecaSort[int64, int64], sources)
		for s := range out {
			out[s] = shuffle.NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
			for i := 0; i < recs; i++ {
				out[s].Put(int64((i*2654435761+s)%recs), int64(i))
			}
		}
		return out
	}
	zcSort, drainSort := sortSrcs(m), sortSrcs(m)
	zc, err = timeIt(func() error {
		dst := shuffle.NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
		defer dst.Release()
		for _, src := range zcSort {
			if err := dst.MergeFrom(src); err != nil {
				return err
			}
			src.Release()
		}
		return dst.DrainSorted(func(int64, int64) bool { return true })
	})
	if err != nil {
		return err
	}
	drain, err = timeIt(func() error {
		dst := shuffle.NewDecaSort[int64, int64](m, less, decompose.Int64Codec{}, decompose.Int64Codec{}, o.Base.SpillDir)
		defer dst.Release()
		for _, src := range drainSort {
			err := src.DrainSorted(func(k, v int64) bool { dst.Put(k, v); return true })
			if err != nil {
				return err
			}
			src.Release()
		}
		return dst.DrainSorted(func(int64, int64) bool { return true })
	})
	if err != nil {
		return err
	}
	recordMerge(rep, "sort-merge", zc, drain)
	rep.add("sort-merge+read %d outputs x %-7d recs  zero-copy=%-9s drain=%-9s speedup=%s",
		sources, recs, fmtDur(zc), fmtDur(drain), speedup(drain, zc))
	return nil
}

// recordMerge emits a metric pair for one merge-shape comparison.
func recordMerge(rep *Report, shape string, zc, drain time.Duration) {
	rep.metric(Metric{Name: shape + "/zero-copy", WallMS: float64(zc) / float64(time.Millisecond)})
	rep.metric(Metric{Name: shape + "/drain", WallMS: float64(drain) / float64(time.Millisecond)})
}

// mergeClusterRows sweeps PageRank across modes and executor counts;
// every configuration must compute the identical checksum.
func mergeClusterRows(o Options, rep *Report) error {
	params := workloads.GraphParams{
		Vertices: int64(o.scaled(20_000)), Edges: o.scaled(100_000),
		Skew: 1.2, Iterations: 3,
	}
	const parts = 8

	var baseline float64
	first := true
	for _, mode := range []engine.Mode{engine.ModeSpark, engine.ModeSparkSer, engine.ModeDeca} {
		for _, execs := range []int{1, 2, 4, 8} {
			cfg := workloads.Config{
				Mode:         mode,
				NumExecutors: execs,
				Parallelism:  o.Base.Parallelism,
				Partitions:   parts,
				SpillDir:     o.Base.SpillDir,
				Seed:         1,
			}
			o.applyChaos(&cfg)
			res, err := workloads.PageRank(cfg, params)
			if err != nil {
				return fmt.Errorf("PR[%v] x%d executors: %w", mode, execs, err)
			}
			if first {
				baseline = res.Checksum
				first = false
			} else if diff := math.Abs(res.Checksum - baseline); diff > 1e-6*math.Abs(baseline) {
				return fmt.Errorf("PR[%v] x%d executors: checksum %g != baseline %g — the merge changed the answer",
					mode, execs, res.Checksum, baseline)
			}
			rep.record(fmt.Sprintf("PR-%v-x%d", mode, execs), res)
			rep.add("PR %-10v execs=%d exec=%-9s gc=%6.3fs remote=%-9s checksum=%.6g",
				mode, execs, fmtDur(res.Wall), res.GC.GCCPUSeconds,
				mb(res.RemoteShuffleBytes), res.Checksum)
		}
	}
	return nil
}

// timeIt wall-clocks fn.
func timeIt(fn func() error) (time.Duration, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
