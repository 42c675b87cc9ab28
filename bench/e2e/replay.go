package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"deca/internal/cache"
	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/memory"
	"deca/internal/shuffle"
	"deca/internal/transport"
	"deca/internal/workloads"
)

// A replay re-executes one job's dataflow single-threaded, straight
// against the exported APIs of the layers the engine would call — same
// types, codecs, record counts, partitioning and placement — with a span
// around every layer call. It returns the job's answer, so a replay that
// drifted from the job fails the run instead of mis-attributing time.

// replayEnv is the cluster a replay runs on: one memory and cache manager
// per executor and the workload's transport.
type replayEnv struct {
	tr *tracer
	// run is the run's root span, root the replay span under it: layer
	// calls on the job's path are children of root, anything else of run.
	run, root int
	w         workload
	seed      int64
	dir       string
	mems      []*memory.Manager
	cache     []*cache.Manager
	trans     transport.Transport
	// fetchSpan is the fetch in flight; the serving side parents its
	// encode span on it (from the server goroutine under TCP).
	fetchSpan atomic.Int64

	genRecords, fillRecords, frameBytes int64
	scanPasses                          int
	wcClosedForm                        float64
}

func newReplayEnv(tr *tracer, run, root int, w workload, seed int64, dir string) (*replayEnv, error) {
	e := &replayEnv{tr: tr, run: run, root: root, w: w, seed: seed, dir: dir}
	c := w.Cfg
	// The engine's split: the budget divides evenly over executors, the
	// cache gets StorageFraction of an executor's share.
	perExec := c.MemoryBudget / int64(c.NumExecutors)
	for i := 0; i < c.NumExecutors; i++ {
		e.mems = append(e.mems, memory.NewManager(c.PageSize, perExec))
		e.cache = append(e.cache, cache.NewManager(int64(float64(perExec)*c.StorageFraction), dir))
	}
	if c.TransportKind == engine.TransportTCP {
		tcp, err := transport.NewTCP(transport.LoopbackAddrs(c.NumExecutors), 30*time.Second)
		if err != nil {
			return nil, err
		}
		e.trans = tcp
	} else {
		e.trans = transport.NewInProcess()
	}
	return e, nil
}

func (e *replayEnv) close() {
	for _, c := range e.cache {
		c.Clear()
	}
	e.trans.Close()
}

// exec is the engine's placement rule: partition p lives on executor
// p mod N.
func (e *replayEnv) exec(p int) int { return p % len(e.mems) }

func (e *replayEnv) span(parent int, name string, fn func(id int) error) error {
	return e.tr.do(parent, name, "replay", fn)
}

// sink is the surface of a Deca shuffle container an exchange drives;
// DecaAgg and DecaGroup both have it. Put and Drain are typed per
// container and stay with the caller.
type sink[S any] interface {
	Spill() error
	SizeBytes() int64
	SpilledBytes() int64
	EncodeWire(w io.Writer) error
	EncodeSegments() (*transport.FrameSegments, error)
	MergeFrom(src S) error
	Release()
}

// exchange replays one shuffle the way engine.exchange runs it: M map
// tasks each fill R buffers (spilling a buffer every threshold/48 Puts,
// the engine's spill tracker with its default entry estimate), every
// buffer registers with the transport, R reduce tasks fetch their M
// inputs, decode them into the reducer's executor and merge them, and the
// stage commit releases the map outputs. fill puts task m's records into
// bufs and calls added(r) after each Put.
func exchange[S sink[S]](
	e *replayEnv, shuf transport.ShuffleID, M, R int,
	newBuf func(mem *memory.Manager) (S, error),
	fill func(span, m int, bufs []S, added func(r int) error) error,
	decode func(r shuffle.WireReader, mem *memory.Manager) (S, error),
) ([]S, error) {
	threshold := max(e.w.Cfg.ShuffleSpillThreshold, 0)
	var ids []transport.MapOutputID
	for m := 0; m < M; m++ {
		ex := e.exec(m)
		bufs := make([]S, R)
		for r := range bufs {
			b, err := newBuf(e.mems[ex])
			if err != nil {
				return nil, err
			}
			bufs[r] = b
		}
		approx := make([]int64, R)
		err := e.span(e.root, "shuffle.fill", func(fs int) error {
			return fill(fs, m, bufs, func(r int) error {
				e.fillRecords++
				if threshold == 0 {
					return nil
				}
				if approx[r] += 48; approx[r] < threshold {
					return nil
				}
				approx[r] = 0
				return e.span(fs, "shuffle.spill", func(int) error { return bufs[r].Spill() })
			})
		})
		if err != nil {
			return nil, err
		}
		for r, b := range bufs {
			id := transport.MapOutputID{Shuffle: shuf, MapTask: m, Reduce: r}
			e.trans.Register(id, transport.Payload{
				Data: b, SrcExecutor: ex,
				Bytes: b.SizeBytes() + b.SpilledBytes(), MemBytes: b.SizeBytes(),
				Encode: b.EncodeWire,
				Segments: func() (fs *transport.FrameSegments, err error) {
					err = e.span(int(e.fetchSpan.Load()), "shuffle.encode", func(int) error {
						fs, err = b.EncodeSegments()
						return err
					})
					return fs, err
				},
			})
			ids = append(ids, id)
		}
	}

	out := make([]S, R)
	var frame bytes.Buffer
	for r := 0; r < R; r++ {
		mem := e.mems[e.exec(r)]
		merged, err := newBuf(mem)
		if err != nil {
			return nil, err
		}
		for m := 0; m < M; m++ {
			id := transport.MapOutputID{Shuffle: shuf, MapTask: m, Reduce: r}
			// The job decodes the frame as it streams off the transport; the
			// replay lands it in a buffer first, so that transport.fetch is
			// serve + wire + copy and shuffle.decode is decode alone. The
			// extra copy costs a few ms per 100 MB.
			frame.Reset()
			err := e.span(e.root, "transport.fetch", func(fs int) error {
				e.fetchSpan.Store(int64(fs))
				_, ok, err := e.trans.Fetch(id, e.exec(r), func(rd transport.FrameReader, size int64) (transport.Decoded, error) {
					_, err := io.CopyN(&frame, rd, size)
					return transport.Decoded{}, err
				})
				if err == nil && !ok {
					err = fmt.Errorf("not registered")
				}
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("fetching %v: %w", id, err)
			}
			e.frameBytes += int64(frame.Len())
			var src S
			err = e.span(e.root, "shuffle.decode", func(int) (err error) {
				src, err = decode(bytes.NewReader(frame.Bytes()), mem)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("decoding %v: %w", id, err)
			}
			err = e.span(e.root, "shuffle.merge", func(int) error {
				defer src.Release()
				return merged.MergeFrom(src)
			})
			if err != nil {
				return nil, err
			}
		}
		out[r] = merged
	}
	err := e.span(e.root, "shuffle.commit", func(int) error {
		for _, pl := range e.trans.Commit(ids) {
			pl.Data.(S).Release()
		}
		return nil
	})
	return out, err
}

// replayWC is workloads.WordCount: lines → (word, 1) → DecaAgg exchange →
// checksum fold. It also sums the closed-form checksum over the words
// datagen actually produced.
func replayWC(e *replayEnv) (float64, error) {
	p, parts := e.w.WC, e.w.Cfg.Partitions
	perPart := max(p.Lines/parts, 1)
	key := shuffle.StringKey()
	add := func(a, b int64) int64 { return a + b }
	type agg = *shuffle.DecaAgg[string, int64]
	out, err := exchange(e, 1, parts, parts,
		func(mem *memory.Manager) (agg, error) {
			return shuffle.NewDecaAgg(mem, add, decompose.StringCodec{}, decompose.Int64Codec{}, e.dir)
		},
		func(span, m int, bufs []agg, added func(int) error) error {
			var lines []string
			e.span(span, "datagen.gen", func(int) error {
				lines = datagen.Words(e.seed+int64(m), p.DistinctKeys, p.WordsPerLine, perPart)
				return nil
			})
			e.genRecords += int64(len(lines))
			for _, line := range lines {
				start := 0
				for i := 0; i <= len(line); i++ {
					if i < len(line) && line[i] != ' ' {
						continue
					}
					if i > start {
						word := line[start:i]
						e.wcClosedForm += float64(1 + len(word)%7)
						r := shuffle.Partition(key.Hash(word), len(bufs))
						bufs[r].Put(word, 1)
						if err := added(r); err != nil {
							return err
						}
					}
					start = i + 1
				}
			}
			return nil
		},
		func(r shuffle.WireReader, mem *memory.Manager) (agg, error) {
			return shuffle.DecodeDecaAgg(r, mem, add, decompose.StringCodec{}, decompose.Int64Codec{}, e.dir)
		})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, b := range out {
		err := e.span(e.root, "shuffle.drain", func(int) error {
			defer b.Release()
			return b.Drain(func(k string, v int64) bool {
				sum += float64(v) * float64(1+len(strings.TrimSpace(k))%7)
				return true
			})
		})
		if err != nil {
			return 0, err
		}
	}
	return sum, nil
}

// replayLR is workloads.LogisticRegression in Deca mode: generate and
// cache the points as StaticFixed pages, then walk the raw pages once per
// iteration. Under a budget the cache manager swaps inside Put and Get,
// exactly as it does under the engine.
func replayLR(e *replayEnv) (float64, error) {
	p, parts := e.w.LR, e.w.Cfg.Partitions
	perPart := max(p.Points/parts, 1)
	codec := workloads.LabeledPointCodec{Dim: p.Dim}
	mem, cm := e.mems[0], e.cache[0]
	block := func(part int) cache.BlockID { return cache.BlockID{Dataset: 1, Partition: part} }
	for part := 0; part < parts; part++ {
		var pts []datagen.LabeledPoint
		e.span(e.root, "datagen.gen", func(int) error {
			pts = datagen.Points(e.seed+int64(part), perPart, p.Dim)
			return nil
		})
		e.genRecords += int64(len(pts))
		err := e.span(e.root, "cache.put", func(int) error {
			defer cm.Unpin(block(part))
			return cm.Put(block(part), cache.NewDecaBlock(mem, codec, pts))
		})
		if err != nil {
			return 0, err
		}
	}

	weights := make([]float64, p.Dim)
	for i := range weights {
		weights[i] = 2*pseudo(e.seed+int64(i)) - 1
	}
	recSize := codec.FixedSize()
	scratch := make([]float64, p.Dim)
	for iter := 0; iter < p.Iterations; iter++ {
		grad := make([]float64, p.Dim)
		for part := 0; part < parts; part++ {
			err := e.span(e.root, "cache.scan", func(int) error {
				blk, err := pinned(cm, block(part))
				if err != nil {
					return err
				}
				defer cm.Unpin(block(part))
				acc := make([]float64, p.Dim)
				g := blk.(*cache.DecaBlock[datagen.LabeledPoint]).Group()
				for pi := 0; pi < g.NumPages(); pi++ {
					page := g.Page(pi)
					for off := 0; off+recSize <= len(page); off += recSize {
						label := decompose.F64(page, off)
						dot := 0.0
						for i := range scratch {
							x := decompose.F64(page, off+8+8*i)
							scratch[i] = x
							dot += weights[i] * x
						}
						factor := (1/(1+math.Exp(-label*dot)) - 1) * label
						for i, x := range scratch {
							acc[i] += factor * x
						}
					}
				}
				for i, x := range acc {
					grad[i] += x
				}
				return nil
			})
			if err != nil {
				return 0, err
			}
		}
		e.scanPasses++
		for i := range weights {
			weights[i] -= grad[i] / float64(p.Points)
		}
	}
	var norm float64
	for _, w := range weights {
		norm += w * w
	}
	return math.Sqrt(norm), nil
}

// pinned is cache.Manager.Get for a block the replay itself put: a miss
// is an error, since nothing may drop a swappable block.
func pinned(cm *cache.Manager, id cache.BlockID) (cache.Block, error) {
	blk, ok, err := cm.Get(id)
	if err != nil {
		return nil, fmt.Errorf("cache: getting %v: %w", id, err)
	}
	if !ok {
		return nil, fmt.Errorf("cache: %v was dropped", id)
	}
	return blk, nil
}

// pseudo mirrors the unexported initial-weight hash of workloads/lr.go;
// the replay must start from the job's weights to reach its answer.
func pseudo(x int64) float64 {
	u := uint64(x) * 0x9e3779b97f4a7c15
	u ^= u >> 33
	u *= 0xc4ceb9fe1a85ec53
	u ^= u >> 29
	return float64(u>>11) / float64(1<<53)
}

// replayPR is workloads.PageRank in Deca mode: a DecaGroup exchange
// builds the adjacency lists, which are cached as pages; each iteration
// walks those pages into a DecaAgg exchange, collects the sums and
// releases the exchange's containers.
func replayPR(e *replayEnv) (float64, error) {
	p, parts := e.w.PR, e.w.Cfg.Partitions
	perPart := max(p.Edges/parts, 1)
	key := shuffle.Int64Key()
	i64 := decompose.Int64Codec{}
	type group = *shuffle.DecaGroup[int64, int64]
	adj, err := exchange(e, 1, parts, parts,
		func(mem *memory.Manager) (group, error) {
			return shuffle.NewDecaGroup[int64, int64](mem, i64, i64, e.dir), nil
		},
		func(span, m int, bufs []group, added func(int) error) error {
			var edges []datagen.Edge
			e.span(span, "datagen.gen", func(int) error {
				edges = datagen.Graph(e.seed+int64(m), p.Vertices, perPart, p.Skew)
				return nil
			})
			e.genRecords += int64(len(edges))
			for _, ed := range edges {
				r := shuffle.Partition(key.Hash(ed.Src), len(bufs))
				bufs[r].Put(ed.Src, ed.Dst)
				if err := added(r); err != nil {
					return err
				}
			}
			return nil
		},
		func(r shuffle.WireReader, mem *memory.Manager) (group, error) {
			return shuffle.DecodeDecaGroup[int64, int64](r, mem, i64, i64, e.dir)
		})
	if err != nil {
		return 0, err
	}

	type adjRec = decompose.Pair[int64, []int64]
	adjCodec := decompose.PairCodec[int64, []int64]{KeyCodec: i64, ValueCodec: decompose.Int64SliceCodec{}}
	block := func(part int) cache.BlockID { return cache.BlockID{Dataset: 1, Partition: part} }
	for r, b := range adj {
		var recs []adjRec
		err := e.span(e.root, "shuffle.drain", func(int) error {
			return b.Drain(func(k int64, vs []int64) bool {
				recs = append(recs, adjRec{Key: k, Value: vs})
				return true
			})
		})
		if err != nil {
			return 0, err
		}
		ex := e.exec(r)
		err = e.span(e.root, "cache.put", func(int) error {
			defer e.cache[ex].Unpin(block(r))
			return e.cache[ex].Put(block(r), cache.NewDecaBlock(e.mems[ex], adjCodec, recs))
		})
		if err != nil {
			return 0, err
		}
		e.span(e.root, "shuffle.commit", func(int) error { b.Release(); return nil })
	}

	// walk visits every (src, degree, neighbor) of one cached block the
	// way decaAdjacencyContribs reads its raw pages.
	walk := func(part int, visit func(src int64, degree int, dst int64) error) error {
		cm := e.cache[e.exec(part)]
		blk, err := pinned(cm, block(part))
		if err != nil {
			return err
		}
		defer cm.Unpin(block(part))
		g := blk.(*cache.DecaBlock[adjRec]).Group()
		for pi := 0; pi < g.NumPages(); pi++ {
			page := g.Page(pi)
			for off := 0; off+12 <= len(page); {
				src := decompose.I64(page, off)
				n := int(decompose.I32(page, off+8))
				base := off + 12
				for i := 0; i < n; i++ {
					if err := visit(src, n, decompose.I64(page, base+8*i)); err != nil {
						return err
					}
				}
				off = base + 8*n
			}
		}
		return nil
	}
	// One read-only pass is cache.scan_s; the job's own scans are fused
	// into the fill loops below.
	for part := 0; part < parts; part++ {
		err := e.tr.do(e.run, "cache.scan", "probe", func(int) error {
			return walk(part, func(int64, int, int64) error { return nil })
		})
		if err != nil {
			return 0, err
		}
	}
	e.scanPasses = 1

	type agg = *shuffle.DecaAgg[int64, float64]
	add := func(a, b float64) float64 { return a + b }
	f64 := decompose.Float64Codec{}
	ranks := map[int64]float64{}
	for iter := 0; iter < p.Iterations; iter++ {
		rank := func(v int64) float64 {
			if r, ok := ranks[v]; ok {
				return r
			}
			return 1.0
		}
		sums, err := exchange(e, transport.ShuffleID(2+iter), parts, parts,
			func(mem *memory.Manager) (agg, error) {
				return shuffle.NewDecaAgg(mem, add, i64, f64, e.dir)
			},
			func(_, m int, bufs []agg, added func(int) error) error {
				return walk(m, func(src int64, degree int, dst int64) error {
					r := shuffle.Partition(key.Hash(dst), len(bufs))
					bufs[r].Put(dst, rank(src)/float64(degree))
					return added(r)
				})
			},
			func(r shuffle.WireReader, mem *memory.Manager) (agg, error) {
				return shuffle.DecodeDecaAgg(r, mem, add, i64, f64, e.dir)
			})
		if err != nil {
			return 0, err
		}
		next := make(map[int64]float64)
		for _, b := range sums {
			err := e.span(e.root, "shuffle.drain", func(int) error {
				defer b.Release()
				return b.Drain(func(v int64, sum float64) bool {
					next[v] = 0.15 + 0.85*sum
					return true
				})
			})
			if err != nil {
				return 0, err
			}
		}
		ranks = next
	}
	var checksum float64
	for _, r := range ranks {
		checksum += r
	}
	return checksum, nil
}
