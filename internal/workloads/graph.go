package workloads

import (
	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/serial"
	"deca/internal/shuffle"
)

// GraphParams sizes the PR/CC graphs (Table 2's LJ/WB/HB scaled down).
type GraphParams struct {
	Vertices   int64
	Edges      int
	Skew       float64
	Iterations int
}

// adjOps are the shuffle helpers for (vertex, vertex) pairs: the edges the
// adjacency lists group, and CC's (vertex, label) messages.
func adjOps(parts int) engine.PairOps[int64, int64] {
	return engine.PairOps[int64, int64]{
		Key:        shuffle.Int64Key(),
		KeySer:     serial.Int64{},
		ValSer:     serial.Int64{},
		KeyCodec:   decompose.Int64Codec{},
		ValCodec:   decompose.Int64Codec{},
		EntrySize:  func(int64, int64) int { return 48 },
		Partitions: parts,
	}
}

// rankOps are the shuffle helpers for (vertex, float) message pairs: the
// per-iteration aggregated shuffle of §6.3.
func rankOps(parts int) engine.PairOps[int64, float64] {
	return engine.PairOps[int64, float64]{
		Key:        shuffle.Int64Key(),
		KeySer:     serial.Int64{},
		ValSer:     serial.F64{},
		KeyCodec:   decompose.Int64Codec{},
		ValCodec:   decompose.Float64Codec{},
		EntrySize:  func(int64, float64) int { return 48 },
		Partitions: parts,
	}
}

// adjacency builds the cached adjacency lists the way the paper's PR/CC
// do (§6.3): edges → groupByKey → cache. The group shuffle's value lists
// grow while buffering (Variable), but the cached copy never changes —
// the partially-decomposable hand-off of Figure 7(b), which is why the
// Deca cache block is safe here (the planner's PRJob() decision); its
// blocks are written from the group's pages (engine.GroupByKey).
// undirected additionally emits each edge's reverse.
func adjacency(ctx *engine.Context, cfg Config, params GraphParams, undirected bool) (*engine.Dataset[decompose.Pair[int64, []int64]], error) {
	cfg = cfg.withDefaults()
	edgesPerPart := max(params.Edges/cfg.Partitions, 1)
	edges := engine.Generate(ctx, cfg.Partitions, func(p int, emit func(decompose.Pair[int64, int64])) {
		for e := range datagen.GraphSeq(cfg.Seed+int64(p), params.Vertices, edgesPerPart, params.Skew) {
			emit(engine.KV(e.Src, e.Dst))
			if undirected {
				emit(engine.KV(e.Dst, e.Src))
			}
		}
	})
	links := engine.GroupByKey(edges, adjOps(cfg.Partitions))

	pairSer := serial.Pair[int64, []int64]{Key: serial.Int64{}, Value: serial.I64Slice{}}
	adjSer := serial.Func[decompose.Pair[int64, []int64]]{
		MarshalFunc: func(dst []byte, v decompose.Pair[int64, []int64]) []byte {
			return pairSer.Marshal(dst, serial.KV[int64, []int64]{Key: v.Key, Value: v.Value})
		},
		UnmarshalFunc: func(src []byte) (decompose.Pair[int64, []int64], int) {
			kv, n := pairSer.Unmarshal(src)
			return engine.KV(kv.Key, kv.Value), n
		},
	}
	links.Persist(engine.Storage[decompose.Pair[int64, []int64]]{
		Estimate: func(v decompose.Pair[int64, []int64]) int { return 56 + 8*len(v.Value) },
		Ser:      adjSer,
		Codec:    decompose.PairCodec[int64, []int64]{KeyCodec: decompose.Int64Codec{}, ValueCodec: decompose.Int64SliceCodec{}},
	})
	if err := engine.Materialize(links); err != nil {
		return nil, err
	}
	// The grouped shuffle's buffers die once the cache is built (§4.2).
	ctx.ReleaseShuffle(links.ID())
	return links, nil
}

// messageSetup prepares partition p of an iteration's messages: msg runs
// once per adjacency record and its value goes to every neighbor; release
// ends what the setup pinned. A failed setup panics, as record plumbing does.
type messageSetup[V any] func(p int) (msg func(src int64, degree int) V, release func())

// adjacencyContribs builds an iteration's message pairs — PageRank's rank
// contributions, CC's labels — from the adjacency cache, a partition at a
// time; toSelf also sends each source's message to the source itself.
// Deca mode walks the cache's raw pages (key, count-prefixed neighbor
// list): the transformed access path, no pair or slice materialization.
func adjacencyContribs[V any](
	ctx *engine.Context,
	links *engine.Dataset[decompose.Pair[int64, []int64]],
	toSelf bool,
	setup messageSetup[V],
) *engine.Dataset[decompose.Pair[int64, V]] {
	return engine.Generate(ctx, links.Partitions(), func(p int, emit func(decompose.Pair[int64, V])) {
		msg, done := setup(p)
		defer done()
		if ctx.Mode() != engine.ModeDeca {
			if err := links.Iterate(p, func(kv decompose.Pair[int64, []int64]) bool {
				v := msg(kv.Key, len(kv.Value))
				for _, dst := range kv.Value {
					emit(engine.KV(dst, v))
				}
				if toSelf {
					emit(engine.KV(kv.Key, v))
				}
				return true
			}); err != nil {
				panic(err)
			}
			return
		}
		blk, release, err := engine.DecaBlockFor(links, p)
		if err != nil {
			panic(err)
		}
		defer release()
		g := blk.Group()
		for pi := 0; pi < g.NumPages(); pi++ {
			page := g.Page(pi)
			off := 0
			for off+12 <= len(page) {
				src, n := decompose.I64(page, off), int(decompose.I32(page, off+8))
				v := msg(src, n)
				base := off + 12
				for i := 0; i < n; i++ {
					emit(engine.KV(decompose.I64(page, base+8*i), v))
				}
				if toSelf {
					emit(engine.KV(src, v))
				}
				off = base + 8*n
			}
		}
	})
}
