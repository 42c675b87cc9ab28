package engine

import (
	"fmt"
	"sync"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/serial"
	"deca/internal/shuffle"
	"deca/internal/transport"
)

// KV builds a key-value pair (Spark's Tuple2).
func KV[K, V any](k K, v V) decompose.Pair[K, V] {
	return decompose.Pair[K, V]{Key: k, Value: v}
}

// PairOps bundles the per-type helpers of a keyed shuffle: the key hash,
// serializers (object-mode spill and SparkSer), codecs (Deca page
// buffers), and an entry-size estimator for object buffers.
type PairOps[K comparable, V any] struct {
	Key        shuffle.Key[K]
	KeySer     serial.Serializer[K]
	ValSer     serial.Serializer[V]
	KeyCodec   decompose.Codec[K]
	ValCodec   decompose.Codec[V]
	EntrySize  func(K, V) int
	Partitions int // reduce-side partitions; 0 = parent's count
}

func (o PairOps[K, V]) partitions(parent int) int {
	if o.Partitions > 0 {
		return o.Partitions
	}
	return parent
}

// decaAble reports whether the context can run this shuffle's aggregation
// buffers as Deca pages with in-place value reuse: Deca mode, codecs
// present, and a StaticFixed value layout (§4.3.2).
func (o PairOps[K, V]) decaAble(ctx *Context) bool {
	return ctx.Mode() == ModeDeca &&
		o.KeyCodec != nil && o.ValCodec != nil &&
		o.ValCodec.FixedSize() >= 0
}

// decaGroupAble: grouping buffers only need codecs (values append-only, so
// RuntimeFixed codecs are safe — Figure 7(b)).
func (o PairOps[K, V]) decaGroupAble(ctx *Context) bool {
	return ctx.Mode() == ModeDeca && o.KeyCodec != nil && o.ValCodec != nil
}

// pairSink is the surface every keyed-shuffle container offers the
// exchange: map-side fill, its frame, the reduce-side fold of a fetched
// frame, and the container lifecycle. Draining is shape-specific, so each
// operator's sink adds the one drain method it names.
type pairSink[K comparable, V any] interface {
	Put(k K, v V)
	Len() int // records in memory
	Spill() error
	Seal() // the fill ended: the container returns what only a Put needed
	SizeBytes() int64
	SpilledBytes() int64
	// EncodeSegments builds the map output's frame for every serve.
	EncodeSegments() (*transport.FrameSegments, error)
	// Fold merges a fetched frame of the sink's kind, staged on this
	// executor, and consumes it.
	Fold(st *shuffle.Staged) error
	Release()
}

// aggSink is ReduceByKey's sink; a merged one is the table LookupFor probes.
type aggSink[K comparable, V any] interface {
	pairSink[K, V]
	StopCombining()
	Drain(yield func(K, V) bool) error
	FoldRuns() error
	Lookup(k K) (V, bool)
}

// groupSink is GroupByKey's sink: the grouping buffer variants.
type groupSink[K comparable, V any] interface {
	pairSink[K, V]
	Drain(yield func(K, []V) bool) error
}

// shuffleStageKey names one stage of one exchange: every role derives the
// same key, so the driver's dispatches and the followers' published bodies
// meet on it. The epoch distinguishes re-materializations of the same
// dataset.
func shuffleStageKey(sh transport.ShuffleID, epoch int, phase string) string {
	return fmt.Sprintf("x/%d/%d/%s", sh, epoch, phase)
}

// uncombinedAfter is the Put at which a combining map buffer is judged
// (DESIGN.md "Where the map side stops combining").
const uncombinedAfter = 1 << 10

// shuffleMapBody is one map task: fill one buffer per reduce partition
// from partition m of d, spilling under the derived threshold, and
// register each with the transport — wrapped in a payload carrying the
// buffer's frame encoder (payloadFor), so a networked transport can frame
// it without knowing its type. stop (a combining sink's) ends the combine
// of a buffer whose first uncombinedAfter Puts were over 95 % new keys.
func shuffleMapBody[K comparable, V any, S pairSink[K, V]](
	ctx *Context,
	d *Dataset[decompose.Pair[K, V]],
	key shuffle.Key[K],
	shufID transport.ShuffleID,
	R int,
	threshold int64,
	entrySize func(K, V) int,
	newBuf func(ex *Executor) (S, error),
	stop func(S),
	t sched.Attempt,
	ex *Executor,
) error {
	m := t.Part
	bufs := make([]S, 0, R)
	trackers := make([]spillTracker, R) // one object a task, not one a reducer buffer
	// Until the task hands a buffer to the transport it is the task's to
	// release: any error return must not leak its pages.
	registered := 0
	defer func() {
		for _, b := range bufs[registered:] {
			b.Release()
		}
	}()
	for r := range trackers {
		b, err := newBuf(ex)
		if err != nil {
			return err
		}
		bufs = append(bufs, b)
		trackers[r] = spillTracker{threshold: threshold, per: entrySizeHint(entrySize)}
	}
	var records int64
	var iterErr error
	walkErr := d.Iterate(m, func(p decompose.Pair[K, V]) bool {
		r := shuffle.Partition(key.Hash(p.Key), R)
		bufs[r].Put(p.Key, p.Value)
		records++
		spill := trackers[r].add()
		if stop != nil && trackers[r].puts == uncombinedAfter && bufs[r].Len()*20 > 19*uncombinedAfter {
			stop(bufs[r])
			ex.counters[obs.ShuffleUncombined].Add(1) // a variable the walk captured would be an object per task
		}
		if spill {
			// Sample page occupancy at the moment the spill decision fires:
			// the used/footprint ratio right before pages flush to disk is
			// the signal adaptive page sizing needs (a chronically low ratio
			// means the page size is wrong for this dataset's record shape).
			ctx.noteOccupancy(ex.id, shufID, bufs[r])
			if err := bufs[r].Spill(); err != nil {
				iterErr = err
				return false
			}
		}
		return true
	})
	ex.counters[obs.ShuffleRecords].Add(records)
	if walkErr != nil {
		return walkErr
	}
	if iterErr != nil {
		return iterErr
	}
	for r, b := range bufs {
		b.Seal() // nothing probes a map output again: its index goes back now, not at stage commit
		ctx.noteOccupancy(ex.id, shufID, b)
		id, pl := transport.MapOutputID{Shuffle: shufID, MapTask: m, Reduce: r}, payloadFor[K, V](b, ex)
		if ctx.testRegister != nil {
			ctx.testRegister(id, pl)
		}
		err := ctx.plane.Register(id, pl)
		registered = r + 1 // Register owns b now, even when it fails
		if err != nil {
			return err
		}
	}
	return nil
}

// LostOutputsError reports map outputs a reduce attempt found
// definitively missing — nothing registered anywhere under their ids,
// which under the stage-commit protocol means their producing executor
// died. The exchange reacts by re-running exactly the named map tasks
// from lineage and retrying the reduce attempt.
type LostOutputsError struct {
	IDs []transport.MapOutputID
}

func (e *LostOutputsError) Error() string {
	first := e.IDs[0]
	return fmt.Sprintf("engine: shuffle %d lost %d map outputs (first: map task %d for reduce partition %d)",
		first.Shuffle, len(e.IDs), first.MapTask, first.Reduce)
}

// lostMapParts extracts the distinct map-task indices of the lost ids —
// the sparse partition set the lineage repair re-runs.
func lostMapParts(ids []transport.MapOutputID) []int {
	seen := make(map[int]bool, len(ids))
	var parts []int
	for _, id := range ids {
		if !seen[id.MapTask] {
			seen[id.MapTask] = true
			parts = append(parts, id.MapTask)
		}
	}
	return parts
}

// shuffleReduceBody is one reduce task: fetch the task's M inputs
// through a bounded-concurrency prefetch pipeline — crossing executors
// where placement differs, with locality noted per executor — that
// stages each frame on this executor (frameOpen), and fold the staged
// frames, in map order, into a buffer created on this executor.
// The source registrations stay pinned (serving is non-consuming), so a
// failed attempt is simply retryable. Definitively-missing outputs are
// collected across the whole input set and reported as one
// *LostOutputsError, so the lineage repair re-runs every lost map task at
// once. The merged buffer is returned; on error everything fetched or
// built is released first.
func shuffleReduceBody[K comparable, V any, S pairSink[K, V]](
	ctx *Context,
	shufID transport.ShuffleID,
	M int,
	t sched.Attempt,
	ex *Executor,
	newBuf func(ex *Executor) (S, error),
) (out S, err error) {
	var zero S
	r := t.Part
	merged, err := newBuf(ex)
	if err != nil {
		return zero, err
	}
	fp := ctx.startFetchPipeline(shufID, r, M, ex, ctx.frameOpen(ex))
	done := false
	defer func() {
		// shutdown releases whatever the workers fetched ahead of a
		// failed merge; after full consumption it is a no-op.
		fp.shutdown()
		if !done {
			merged.Release()
		}
	}()
	var lost []transport.MapOutputID
	for m := 0; m < M; m++ {
		res := fp.wait(m)
		id := transport.MapOutputID{Shuffle: shufID, MapTask: m, Reduce: r}
		if res.err != nil {
			if len(lost) > 0 {
				continue // already repairing; the retried attempt re-fetches
			}
			return zero, fmt.Errorf("engine: fetching map output %v: %w", id, res.err)
		}
		if !res.ok {
			lost = append(lost, id)
			continue
		}
		if len(lost) > 0 {
			// The attempt is already doomed to a lineage retry; drain the
			// remaining deliveries without merging.
			releasePayloads(res.pl)
			fp.merged(res.pl)
			continue
		}
		// The staged frame folds straight into the merged buffer (Fold
		// consumes it, error or not).
		st := res.pl.Data.(*shuffle.Staged)
		ctx.noteSpill(res.pl.SrcExecutor, st.SpilledBytes())
		err = merged.Fold(st)
		fp.merged(res.pl)
		if err != nil {
			return zero, err
		}
		if f := ctx.conf.Chaos; f != nil {
			if err := f.MergeFault(t.Stage, t.Part, t.Attempt, m+1); err != nil {
				return zero, err
			}
		}
	}
	if len(lost) > 0 {
		return zero, &LostOutputsError{IDs: lost}
	}
	done = true
	return merged, nil
}

// lineageRepair serializes map-task re-runs for one reduce stage. A
// reduce attempt that finds outputs definitively missing reports them
// together with the repair generation it observed before fetching; the
// first reporter of a generation re-runs exactly the lost map tasks — a
// sparse re-dispatch against the still-open map stage, which settles no
// verdict of its own — and advances the generation, and every concurrent
// or later reporter of the same generation skips straight to its retry,
// which re-fetches the re-registered outputs. A nil repair (any stage but
// a reduce) repairs nothing.
type lineageRepair struct {
	ctx  *Context
	maps stage // the map stage, and the body its tasks run
	body taskBody[struct{}]

	mu  sync.Mutex
	gen int
}

func (lr *lineageRepair) generation() int {
	if lr == nil {
		return 0
	}
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.gen
}

func (lr *lineageRepair) repair(g0 int, ids []transport.MapOutputID) error {
	if lr == nil {
		return nil
	}
	lr.mu.Lock()
	defer lr.mu.Unlock()
	if lr.gen != g0 {
		return nil // another attempt already repaired this generation
	}
	rerun := lr.maps
	rerun.parts = lostMapParts(ids)
	for _, p := range rerun.parts {
		lr.ctx.executorFor(p).counters[obs.LineageMapReruns].Add(1)
	}
	if err := dispatch(lr.ctx, rerun, nil, lr.body); err != nil {
		return err
	}
	lr.gen++
	return nil
}

// exchange is the transport-backed map/reduce exchange every keyed
// shuffle runs, written once for every role: begin (the one role-specific
// step, which opens the epoch after prev), shuffleMapBody × M as one stage,
// shuffleReduceBody × R as the next, then commit or release. It returns the
// merged reduce outputs, by partition, that this process owns — all of
// them in-process, those the driver placed here on a follower, none on
// the multiproc driver — and the epoch it opened.
//
// Recovery is map-task-granular and there is no other kind: serving is
// non-consuming, so a failed reduce attempt simply retries, and when its
// inputs are definitively lost (their producing executor died) the lineage
// repair re-runs only the lost map tasks before the retry re-fetches. A
// reduce stage whose repair cannot converge inside the task-retry budget
// fails the job with an error naming the shuffle. On success the consuming
// stage commits: every registered map output's lifetime ends cluster-wide.
// On any error, every buffer this exchange created, fetched, or still
// holds registered is released before returning.
func exchange[K comparable, V any, S pairSink[K, V]](
	d *Dataset[decompose.Pair[K, V]],
	dsID, prev int,
	key shuffle.Key[K],
	R int,
	entrySize func(K, V) int,
	newBuf func(ex *Executor) (S, error),
	stop func(S),
) (map[int]releasable, int, error) {
	ctx := d.ctx
	M := d.parts
	threshold := ctx.shuffleSpillThreshold(M * R)
	shufID, epoch, err := ctx.beginExchange(dsID, prev)
	if err != nil {
		return nil, prev, err
	}

	// The map stage is idempotent: a re-run of a completed map task builds
	// private buffers and registers content-identical outputs, and
	// Register's replace semantics release the set it displaces.
	maps := stage{key: shuffleStageKey(shufID, epoch, "map"), parts: denseParts(M), idempotent: true}
	mapBody := noPartial(func(t sched.Attempt, ex *Executor) error {
		return shuffleMapBody(ctx, d, key, shufID, R, threshold, entrySize, newBuf, stop, t, ex)
	})
	if err := runStage(ctx, maps, nil, mapBody); err != nil {
		ctx.dropShuffleOutputs(shufID)
		return nil, epoch, err
	}
	if ctx.testAfterMapStage != nil {
		ctx.testAfterMapStage(shufID)
	}

	// A reduce task keeps its merged output, so the stage is not
	// idempotent: a failed attempt retries against the still-pinned map
	// outputs, a completed one is never re-run. The first task with a
	// buffer to keep makes the map, so a process that runs none of the
	// tasks holds nothing.
	var outMu sync.Mutex
	var outputs map[int]releasable
	reduces := stage{
		key: shuffleStageKey(shufID, epoch, "reduce"), parts: denseParts(R),
		rep: &lineageRepair{ctx: ctx, maps: maps, body: mapBody},
	}
	err = runStage(ctx, reduces, nil, noPartial(func(t sched.Attempt, ex *Executor) error {
		merged, err := shuffleReduceBody(ctx, shufID, M, t, ex, newBuf)
		if err != nil {
			return err
		}
		outMu.Lock()
		defer outMu.Unlock()
		if _, dup := outputs[t.Part]; dup {
			// A leak guard, not a race: a task's attempts run one at a time
			// and a completed reduce is never re-run. Keep the first.
			merged.Release()
			return nil
		}
		if outputs == nil {
			outputs = make(map[int]releasable, R)
		}
		outputs[t.Part] = merged
		return nil
	}))
	if err != nil {
		outMu.Lock() // a follower whose control connection died may still have attempts in flight
		releaseAll(outputs)
		outMu.Unlock()
		ctx.dropShuffleOutputs(shufID)
		return nil, epoch, fmt.Errorf("engine: shuffle %d (dataset %d, epoch %d): reduce stage failed: %w",
			shufID, dsID, epoch, err)
	}
	if ctx.testAfterReduceVerdict != nil {
		ctx.testAfterReduceVerdict(dsID, epoch)
	}
	// Stage commit: the consuming stage settled, so every map output's
	// lifetime ends cluster-wide.
	ctx.commitShuffleOutputs(shufID, M, R)
	return outputs, epoch, nil
}

// spillTracker triggers buffer spills on an incrementally-maintained size
// estimate (checking the buffer's own SizeBytes per record would be
// quadratic for object tables).
type spillTracker struct {
	threshold int64
	approx    int64
	per       int64
	puts      int // into the buffer, for the combine rule (shuffleMapBody)
}

// add records one insertion; it reports whether the caller should spill.
func (s *spillTracker) add() bool {
	s.puts++
	if s.threshold <= 0 {
		return false
	}
	s.approx += s.per
	if s.approx >= s.threshold {
		s.approx = 0
		return true
	}
	return false
}

// sinkShape is what tells one keyed-shuffle operator from another: which
// containers it fills (S, in a Deca and an Object flavour) and how a
// finished container drains into output records T.
type sinkShape[K comparable, V, T any, S pairSink[K, V]] struct {
	// deca selects the page-backed flavour; both ends of the exchange
	// derive it from the same Config and PairOps.
	deca   bool
	newBuf func(ex *Executor) (S, error)
	// drain yields what s holds; lend says the consumer borrows each record
	// for one yield (Map's rule), which a sink may use or ignore.
	drain func(s S, lend bool, yield func(T) bool) error
	count func(S) (int64, error) // what drain would yield, decoding nothing; nil: only a drain can tell
	stop  func(S)                // ends a map buffer's combine; nil where S does not combine
}

// keyedShuffle is the shell ReduceByKey and GroupByKey share: a
// dataset of R partitions over a memoized exchange of sh's sinks — the
// shuffle state with its materialize/drain wiring, entered in the context's
// registry once, for the dataset's life.
func keyedShuffle[K comparable, V, T any, S pairSink[K, V]](
	d *Dataset[decompose.Pair[K, V]],
	ops PairOps[K, V],
	sh sinkShape[K, V, T, S],
) *Dataset[T] {
	ctx := d.ctx
	R := ops.partitions(d.parts)

	// Deca sinks encode their frames through their codecs; Object sinks need
	// the Kryo-style serializers, and a shuffle built without them fails
	// when it materializes.
	missing := ""
	switch {
	case sh.deca: // framed through the codecs
	case ops.KeySer == nil:
		missing = "KeySer"
	case ops.ValSer == nil:
		missing = "ValSer"
	}

	st := newShuffleState[T](ctx, R)
	st.materialize = func() (err error) {
		if missing != "" {
			return fmt.Errorf("engine: shuffle of dataset %d: PairOps.%s is nil, and Object-mode buffers cross executors only as serialized frames",
				st.datasetID, missing)
		}
		st.outputs, st.epoch, err = exchange(d, st.datasetID, st.epoch, ops.Key, R, ops.EntrySize, sh.newBuf, sh.stop)
		return err
	}

	walk := func(p int, lend bool, yield func(T) bool) {
		if _, err := pinned(st, p, func(buf any) (any, error) { return nil, sh.drain(buf.(S), lend, yield) }); err != nil {
			panic(err)
		}
	}
	out := newDataset(ctx, R, func(p int) Seq[T] {
		return func(yield func(T) bool) { walk(p, false, yield) }
	})
	out.walk = walk
	if sh.count != nil {
		out.size = func(p int) (int64, error) {
			return pinned(st, p, func(buf any) (int64, error) { return sh.count(buf.(S)) })
		}
	}
	st.datasetID = out.id
	ctx.shufMu.Lock()
	ctx.shuffleReg[out.id] = st
	ctx.shufMu.Unlock()
	return out
}

// objectConfig is the Object containers' construction config under ctx —
// the one place a shuffle's serializers meet the context's spill directory.
func (o PairOps[K, V]) objectConfig(ctx *Context) shuffle.ObjectConfig[K, V] {
	return shuffle.ObjectConfig[K, V]{
		KeySer: o.KeySer, ValSer: o.ValSer,
		SpillDir: ctx.conf.SpillDir, EntrySize: o.EntrySize,
	}
}

// ReduceByKey shuffles d by key and eagerly combines values, Spark-style:
// map tasks combine into per-reduce-partition hash buffers registered with
// the transport; reduce tasks fetch and merge the map outputs, crossing
// executors where the placement differs. In Deca mode with a fixed-size
// value codec the buffers reuse value segments in place (§4.3.2);
// otherwise they box a new value per combine.
func ReduceByKey[K comparable, V any](
	d *Dataset[decompose.Pair[K, V]],
	ops PairOps[K, V],
	combine func(V, V) V,
) *Dataset[decompose.Pair[K, V]] {
	ctx := d.ctx
	deca, dir, cfg := ops.decaAble(ctx), ctx.conf.SpillDir, ops.objectConfig(ctx)
	return keyedShuffle(d, ops, sinkShape[K, V, decompose.Pair[K, V], aggSink[K, V]]{
		deca: deca,
		newBuf: func(ex *Executor) (aggSink[K, V], error) {
			if deca {
				return shuffle.NewDecaAgg(ex.mem, combine, ops.KeyCodec, ops.ValCodec, dir)
			}
			return shuffle.NewObjectAgg(combine, cfg), nil
		},
		drain: func(s aggSink[K, V], lend bool, yield func(decompose.Pair[K, V]) bool) error {
			emit := func(k K, v V) bool { return yield(KV(k, v)) }
			if d, ok := s.(*shuffle.DecaAgg[K, V]); ok && lend {
				return d.DrainInto(decompose.LendingChunk(), emit)
			}
			return s.Drain(emit)
		},
		// A merged container holds each key once, once its runs are folded in.
		count: func(s aggSink[K, V]) (int64, error) {
			err := s.FoldRuns()
			return int64(s.Len()), err
		},
		stop: aggSink[K, V].StopCombining,
	})
}

// GroupByKey shuffles d by key and collects the complete value list per
// key. In Deca mode values decompose into the buffer's pages as per-key
// chains, and a Deca-persisted output's block is written from them
// (DecaGroup.WriteLists; Figure 7(b)).
func GroupByKey[K comparable, V any](
	d *Dataset[decompose.Pair[K, V]],
	ops PairOps[K, V],
) *Dataset[decompose.Pair[K, []V]] {
	ctx := d.ctx
	deca, dir, cfg := ops.decaGroupAble(ctx), ctx.conf.SpillDir, ops.objectConfig(ctx)
	out := keyedShuffle(d, ops, sinkShape[K, V, decompose.Pair[K, []V], groupSink[K, V]]{
		deca: deca,
		newBuf: func(ex *Executor) (groupSink[K, V], error) {
			if deca {
				return shuffle.NewDecaGroup(ex.mem, ops.KeyCodec, ops.ValCodec, dir), nil
			}
			return shuffle.NewObjectGroup(cfg), nil
		},
		drain: func(s groupSink[K, V], _ bool, yield func(decompose.Pair[K, []V]) bool) error {
			return s.Drain(func(k K, vs []V) bool { return yield(KV(k, vs)) })
		},
	})
	if deca {
		st := ctx.shuffleOf(out.id).(*shuffleState[decompose.Pair[K, []V]])
		out.fromPages = func(p int, ex *Executor) (cache.Block, error) {
			return pinned(st, p, func(buf any) (cache.Block, error) {
				g, n, err := buf.(*shuffle.DecaGroup[K, V]).WriteLists(ex.mem, out.storage.Codec)
				if err != nil {
					return nil, err
				}
				return cache.NewDecaBlockFromGroup(ex.mem, out.storage.Codec, g, n), nil
			})
		}
	}
	return out
}

// shuffleState memoizes a shuffle's materialized outputs across actions,
// like Spark's shuffle files surviving between jobs. Draining or probing
// an output buffer may fold spilled runs back in (a mutation), so the
// drains and probes of one output partition are serialized (pin);
// concurrent actions over the same shuffled dataset stay safe.
//
// A released shuffle is not dead, only reclaimed: the next read
// re-materializes it from its parents — Spark's lineage recovery, which
// the fault-tolerance subsystem leans on when a blacklisted executor's
// cache blocks are recomputed after the shuffle they derived from had
// already ended its lifetime. Each re-materialization is a fresh
// container lifetime (new buffers) under the next epoch, the number every
// role names it by. A failed materialization is sticky: concurrent and
// retried actions observe the same error instead of multiplying doomed
// stage re-runs.
type shuffleState[T any] struct {
	ctx         *Context
	datasetID   int
	materialize func() error
	partMu      []sync.Mutex

	mu   sync.Mutex
	live bool
	err  error
	// epoch names the latest materialization: issued by the deciding roles,
	// adopted from the driver's announcement on a follower (beginExchange).
	epoch   int
	outputs map[int]releasable // the live materialization's merged outputs held here
	// gate fences buffer release against in-flight pins: a drain or a map
	// task probing (LookupFor) holds a read lock from capture to completion,
	// and Release frees buffers under the write lock. In-process programs
	// only release between jobs, but the multiproc recovery path releases
	// a materialization while other partitions of the same dataset may
	// still be pinned on this executor.
	gate sync.RWMutex
}

func newShuffleState[T any](ctx *Context, parts int) *shuffleState[T] {
	return &shuffleState[T]{ctx: ctx, partMu: make([]sync.Mutex, parts)}
}

// ensureLocked materializes once under st.mu, memoizing both success and
// failure.
func (st *shuffleState[T]) ensureLocked() error {
	if st.err != nil {
		return st.err
	}
	if st.live {
		return nil
	}
	if err := st.materialize(); err != nil {
		st.err = err
		return err
	}
	st.live = true
	return nil
}

// Materialize forces the shuffle's materialization — the control plane's
// by-id entry point (Context.MaterializeShuffle). Concurrent callers
// serialize on the state's mutex; all observe one materialization.
func (st *shuffleState[T]) Materialize() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ensureLocked()
}

// MaterializeEpoch ensures the materialization the driver announced as
// epoch exists locally, releasing a live materialization of an *older*
// epoch first — the driver released it cluster-wide before announcing
// the new one, but the release and materialize broadcasts are handled on
// independent goroutines, so the release may not have landed here yet.
// The staleness check runs under the state lock: a concurrent
// materialization that is adopting the announced epoch finishes first
// and is then correctly left alone.
func (st *shuffleState[T]) MaterializeEpoch(epoch int) error {
	st.mu.Lock()
	if st.epoch < epoch {
		st.releaseLocked()
	}
	err := st.ensureLocked()
	st.mu.Unlock()
	return err
}

// ReleaseEpoch releases the materialization only if it is still the given
// epoch's — a late-arriving recovery release must not free the buffers of
// a newer materialization — and reports whether the given epoch is still
// the current one (or, on a follower, not yet adopted). The check-and-clear
// runs under the state lock, which also covers the materialization that
// adopts or issues the next epoch.
func (st *shuffleState[T]) ReleaseEpoch(epoch int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.epoch > epoch {
		return false
	}
	st.releaseLocked()
	return true
}

func (st *shuffleState[T]) Epoch() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// releaseLocked ends the live materialization under st.mu, waiting out
// in-flight pins before freeing their buffers. The gate acquisition under
// st.mu is safe: a pin holds only the gate (not st.mu) while its holder
// runs, and no new pin starts without st.mu.
func (st *shuffleState[T]) releaseLocked() {
	if !st.live {
		return
	}
	st.live = false
	st.gate.Lock()
	releaseAll(st.outputs)
	st.outputs = nil
	st.gate.Unlock()
}

// pin materializes the shuffle if needed and holds partition p's merged
// output for a drain or LookupFor's probes until unpin(p): the drain gate
// fends off a release, the partition lock other drains and probes. A
// partition held elsewhere (multiproc) is a *MissingOutputError, whose
// epoch lets the driver ignore it once it has re-materialized.
func (st *shuffleState[T]) pin(p int) (any, error) {
	st.mu.Lock()
	if err := st.ensureLocked(); err != nil {
		st.mu.Unlock()
		return nil, err
	}
	outputs, epoch := st.outputs, st.epoch
	// The gate is taken before st.mu is released, so a Release cannot free
	// the captured outputs in between.
	st.gate.RLock()
	st.mu.Unlock()
	buf, ok := outputs[p]
	if !ok {
		st.gate.RUnlock()
		return nil, &MissingOutputError{Dataset: st.datasetID, Epoch: epoch, Part: p}
	}
	st.partMu[p].Lock()
	return buf, nil
}

func (st *shuffleState[T]) unpin(p int) {
	st.partMu[p].Unlock()
	st.gate.RUnlock()
}

// pinned runs f on partition p's merged output, pinned for the call.
func pinned[T, R any](st *shuffleState[T], p int, f func(buf any) (R, error)) (r R, err error) {
	buf, err := st.pin(p)
	if err != nil {
		return r, err
	}
	defer st.unpin(p)
	return f(buf)
}

func (st *shuffleState[T]) Release() {
	st.mu.Lock()
	st.releaseLocked()
	st.mu.Unlock()
}

// releasable lets the context track shuffle outputs without their type
// parameters.
type releasable interface{ Release() }

// releaseAll ends the lifetime of an exchange's merged reduce outputs.
func releaseAll[S releasable](outputs map[int]S) {
	for _, buf := range outputs {
		buf.Release()
	}
}

// releasePayloads ends the lifetime of payloads this process took back
// from the transport or its fetch pipeline: whatever container or staged
// frame each carries is released.
func releasePayloads(pls ...transport.Payload) {
	for _, pl := range pls {
		if rel, ok := pl.Data.(releasable); ok {
			rel.Release()
		}
	}
}

// entrySizeHint is a spill tracker's per-Put estimate: es of the zero
// pair, or 48 bytes where es is nil or sizes nothing.
func entrySizeHint[K comparable, V any](es func(K, V) int) int64 {
	if es != nil {
		var k K
		var v V
		if n := es(k, v); n > 0 {
			return int64(n)
		}
	}
	return 48
}
