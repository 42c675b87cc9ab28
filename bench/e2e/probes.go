package main

import (
	"bytes"
	"fmt"
	"strings"

	"deca/internal/cache"
	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/workloads"
)

// Micro-probes time one exported operation of one layer in isolation, on
// the workload's own record type where the layer handles records. Each
// runs under its own "probe" span; none is on the replayed job path.

// prober runs probes under the run's root span and collects their
// per-layer metrics.
type prober struct {
	tr   *tracer
	root int
	dir  string
	out  map[string]float64
}

// timed runs fn under a probe span and returns its seconds.
func (p *prober) timed(name string, fn func() error) (float64, error) {
	id := p.tr.begin(p.root, name, "probe")
	err := fn()
	return p.tr.end(id, nil).Seconds(), err
}

// probeRecordCount is how many records the codec, swap and snapshot
// probes handle: enough for a few pages, small enough to stay under a
// second on every record type.
const probeRecordCount = 200_000

// probeWorkloadRecords runs the record-typed probes on a sample of the
// workload's own records: (word, count) pairs for WordCount, labeled
// points for LR, adjacency lists for PageRank.
func (p *prober) probeWorkloadRecords(w workload, seed int64) error {
	switch w.Kind {
	case "wc":
		lines := datagen.Words(seed, w.WC.DistinctKeys, w.WC.WordsPerLine, max(probeRecordCount/w.WC.WordsPerLine, 1))
		var recs []decompose.Pair[string, int64]
		for _, line := range lines {
			for _, word := range strings.Fields(line) {
				recs = append(recs, decompose.Pair[string, int64]{Key: word, Value: 1})
			}
		}
		return probeRecords(p, decompose.PairCodec[string, int64]{KeyCodec: decompose.StringCodec{}, ValueCodec: decompose.Int64Codec{}}, recs)
	case "lr":
		n := min(probeRecordCount, w.LR.Points)
		return probeRecords(p, workloads.LabeledPointCodec{Dim: w.LR.Dim}, datagen.Points(seed, n, w.LR.Dim))
	case "pr":
		lists := map[int64][]int64{}
		for _, e := range datagen.Graph(seed, w.PR.Vertices, min(probeRecordCount, w.PR.Edges), w.PR.Skew) {
			lists[e.Src] = append(lists[e.Src], e.Dst)
		}
		var recs []decompose.Pair[int64, []int64]
		for src, dsts := range lists {
			recs = append(recs, decompose.Pair[int64, []int64]{Key: src, Value: dsts})
		}
		return probeRecords(p, decompose.PairCodec[int64, []int64]{KeyCodec: decompose.Int64Codec{}, ValueCodec: decompose.Int64SliceCodec{}}, recs)
	}
	return fmt.Errorf("unknown workload kind %q", w.Kind)
}

// probeRecords measures decompose (encode into and decode out of a page
// group), memory (snapshot and restore of that group) and cache (swap-out
// and swap-in of a block of those records).
func probeRecords[T any](p *prober, codec decompose.Codec[T], recs []T) error {
	if len(recs) == 0 {
		return fmt.Errorf("no records to probe")
	}
	mem := memory.NewManager(0, 0)
	g := mem.NewGroup()
	defer g.Release()
	perRec := func(s float64) float64 { return s * 1e9 / float64(len(recs)) }

	s, _ := p.timed("decompose.encode", func() error {
		for _, r := range recs {
			decompose.Write(g, codec, r)
		}
		return nil
	})
	p.out["decompose.encode_ns_rec"] = perRec(s)
	decoded := 0
	s, _ = p.timed("decompose.decode", func() error {
		decompose.Scan(g, codec, func(T) bool { decoded++; return true })
		return nil
	})
	if decoded != len(recs) {
		return fmt.Errorf("decompose probe decoded %d of %d records", decoded, len(recs))
	}
	p.out["decompose.decode_ns_rec"] = perRec(s)

	var frame bytes.Buffer
	frame.Grow(int(g.SnapshotSize()))
	s, err := p.timed("memory.snapshot", func() error {
		_, err := g.Snapshot(&frame)
		return err
	})
	if err != nil {
		return err
	}
	frameMB := float64(frame.Len()) / mb
	p.out["memory.snapshot_mb_s"] = frameMB / s
	s, err = p.timed("memory.restore", func() error {
		restored, err := mem.RestoreGroup(bytes.NewReader(frame.Bytes()))
		if err == nil {
			restored.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out["memory.restore_mb_s"] = frameMB / s

	blk := cache.NewDecaBlock(mem, codec, recs)
	defer blk.Drop()
	blockMB := float64(blk.MemBytes()) / mb
	s, err = p.timed("cache.swap_out", func() error { return blk.SwapOut(p.dir) })
	if err != nil {
		return err
	}
	p.out["cache.swap_out_mb_s"] = blockMB / s
	s, err = p.timed("cache.swap_in", blk.SwapIn)
	if err != nil {
		return err
	}
	p.out["cache.swap_in_mb_s"] = blockMB / s
	return nil
}

// probeMemory times the page pool: fresh pages, pooled pages and group
// release, on groups of 8 default-size pages.
func (p *prober) probeMemory() {
	const groups, pagesPer = 8, 8
	mem := memory.NewManager(0, 0)
	fill := func() []*memory.Group {
		gs := make([]*memory.Group, groups)
		for i := range gs {
			gs[i] = mem.NewGroup()
			for j := 0; j < pagesPer; j++ {
				gs[i].Alloc(mem.PageSize())
			}
		}
		return gs
	}
	release := func(gs []*memory.Group) {
		for _, g := range gs {
			g.Release()
		}
	}
	var gs []*memory.Group
	s, _ := p.timed("memory.alloc", func() error { gs = fill(); return nil })
	p.out["memory.alloc_ns_page"] = s * 1e9 / (groups * pagesPer)
	s, _ = p.timed("memory.release", func() error { release(gs); return nil })
	p.out["memory.release_us_group"] = s * 1e6 / groups
	s, _ = p.timed("memory.reuse", func() error { gs = fill(); return nil })
	p.out["memory.reuse_ns_page"] = s * 1e9 / (groups * pagesPer)
	release(gs)
}

// probeControl times the fixed cost of a stage and of a task with the
// workload's own cluster shape: engine.RunPartitions over no-op bodies,
// sched.Cluster.RunStage over empty bodies, and obs.Recorder.Record into
// a full ring.
func (p *prober) probeControl(w workload) error {
	const stages = 200
	parts := w.Cfg.Partitions
	ctx := engine.New(engine.Config{NumExecutors: w.Cfg.NumExecutors, Parallelism: w.Cfg.Parallelism,
		NumPartitions: parts, Mode: engine.ModeDeca, TransportKind: w.Cfg.TransportKind, SpillDir: p.dir})
	s, err := p.timed("engine.stages", func() error {
		for i := 0; i < stages; i++ {
			if err := engine.RunPartitions(ctx, parts, func(int) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	ctx.Close()
	if err != nil {
		return err
	}
	p.out["engine.stage_overhead_us"] = s * 1e6 / stages

	cluster := sched.NewCluster(sched.Config{NumExecutors: w.Cfg.NumExecutors, SlotsPerExecutor: w.Cfg.Parallelism})
	s, err = p.timed("sched.dispatch", func() error {
		for i := 0; i < stages; i++ {
			if err := cluster.RunStage(parts, sched.StageOptions{}, func(sched.Attempt) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["sched.dispatch_us_task"] = s * 1e6 / float64(stages*parts)

	const events = 500_000
	rec := obs.NewRecorder(0)
	for i := 0; i < obs.DefaultCapacity; i++ {
		rec.Record(obs.Event{Kind: obs.KindTaskStart})
	}
	s, _ = p.timed("obs.record", func() error {
		for i := 0; i < events; i++ {
			rec.Record(obs.Event{Kind: obs.KindTaskStart, Part: int32(i)})
		}
		return nil
	})
	p.out["obs.record_ns_event"] = s * 1e9 / events
	return nil
}
