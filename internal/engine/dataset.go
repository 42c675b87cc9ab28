package engine

import (
	"fmt"
	"iter"
	"slices"
	"sync"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/serial"
)

// Dataset is the engine's RDD: a lazy, partitioned collection. Transform
// it with the free functions (Map, Filter, ReduceByKey, ...) — Go methods
// cannot introduce type parameters — and materialize it with an action
// (Collect, Reduce, Count, Foreach).
type Dataset[T any] struct {
	ctx     *Context
	id      int
	parts   int
	compute func(p int) Seq[T]

	// Caching state (§4.2 "cache blocks" container). blockMu serializes
	// block production per partition so concurrent tasks neither compute a
	// partition twice nor replace a block another task has pinned.
	level     StorageLevel
	storage   Storage[T]
	blockMu   []sync.Mutex
	persisted bool
}

// StorageLevel selects the cache representation of a persisted dataset.
type StorageLevel int

const (
	// StorageNone: not cached; recomputed on each use.
	StorageNone StorageLevel = iota
	// StorageObjects: plain object arrays (Spark MEMORY).
	StorageObjects
	// StorageSerialized: Kryo-style bytes (SparkSer, MEMORY_SER).
	StorageSerialized
	// StorageDeca: decomposed page groups (Deca).
	StorageDeca
)

func (l StorageLevel) String() string {
	switch l {
	case StorageNone:
		return "none"
	case StorageObjects:
		return "objects"
	case StorageSerialized:
		return "serialized"
	case StorageDeca:
		return "deca-pages"
	default:
		return fmt.Sprintf("StorageLevel(%d)", int(l))
	}
}

// Storage bundles the per-type helpers each level needs: a heap-size
// estimator for object blocks, a serializer for serialized blocks and
// swap, and a codec for Deca page blocks.
type Storage[T any] struct {
	Estimate func(T) int
	Ser      serial.Serializer[T]
	Codec    decompose.Codec[T]
}

// newDataset wires a dataset into the context.
func newDataset[T any](ctx *Context, parts int, compute func(p int) Seq[T]) *Dataset[T] {
	return &Dataset[T]{ctx: ctx, id: ctx.datasetID(), parts: parts, compute: compute}
}

// Parallelize splits data into parts partitions (parts <= 0 uses the
// configured default).
func Parallelize[T any](ctx *Context, data []T, parts int) *Dataset[T] {
	if parts <= 0 {
		parts = ctx.conf.NumPartitions
	}
	if parts > len(data) && len(data) > 0 {
		parts = len(data)
	}
	if parts == 0 {
		parts = 1
	}
	n := len(data)
	return newDataset(ctx, parts, func(p int) Seq[T] {
		lo := n * p / parts
		hi := n * (p + 1) / parts
		return func(yield func(T) bool) {
			for _, v := range data[lo:hi] {
				if !yield(v) {
					return
				}
			}
		}
	})
}

// Generate builds a dataset whose partitions are produced lazily by gen —
// the moral equivalent of reading partition p of an input file. Data never
// lives in driver memory, so caching behaviour is realistic.
func Generate[T any](ctx *Context, parts int, gen func(p int, emit func(T))) *Dataset[T] {
	if parts <= 0 {
		parts = ctx.conf.NumPartitions
	}
	return newDataset(ctx, parts, func(p int) Seq[T] {
		return func(yield func(T) bool) {
			stop := false
			gen(p, func(v T) {
				if stop {
					return
				}
				if !yield(v) {
					stop = true
				}
			})
		}
	})
}

// Partitions returns the partition count.
func (d *Dataset[T]) Partitions() int { return d.parts }

// ID returns the dataset's unique id.
func (d *Dataset[T]) ID() int { return d.id }

// Context returns the owning context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// Persist marks the dataset for caching at the given level on first
// materialization. It returns d for chaining. Level requirements:
// StorageObjects wants Estimate (and Ser to allow swap), StorageSerialized
// requires Ser, StorageDeca requires Codec — enforced here so the failure
// happens at plan time, not mid-job.
func (d *Dataset[T]) Persist(level StorageLevel, s Storage[T]) *Dataset[T] {
	switch level {
	case StorageSerialized:
		if s.Ser == nil {
			panic("engine: StorageSerialized requires Storage.Ser")
		}
	case StorageDeca:
		if s.Codec == nil {
			panic("engine: StorageDeca requires Storage.Codec")
		}
	}
	d.level = level
	d.storage = s
	d.blockMu = make([]sync.Mutex, d.parts)
	d.persisted = level != StorageNone
	return d
}

// Unpersist releases every cache block on every executor — the end of the
// container's lifetime; for Deca blocks the page groups release wholesale.
func (d *Dataset[T]) Unpersist() {
	if d.persisted {
		for _, ex := range d.ctx.execs {
			ex.cache.Unpersist(d.id)
		}
	}
}

// Iterate yields partition p's records, transparently materializing and
// consulting the cache when the dataset is persisted.
func (d *Dataset[T]) Iterate(p int, yield func(T) bool) error {
	if !d.persisted {
		d.compute(p)(yield)
		return nil
	}
	blk, unpin, err := d.pinBlock(p)
	if err != nil {
		return err
	}
	defer unpin()
	// Every block type walks its own representation.
	blk.(interface{ Each(func(T) bool) }).Each(yield)
	return nil
}

// count returns partition p's record count. A persisted partition is
// materialized if needed and answers from its block — no record is decoded
// to be counted.
func (d *Dataset[T]) count(p int) (int64, error) {
	if d.persisted {
		blk, unpin, err := d.pinBlock(p)
		if err != nil {
			return 0, err
		}
		defer unpin()
		return int64(blk.Count()), nil
	}
	var n int64
	d.compute(p)(func(T) bool {
		n++
		return true
	})
	return n, nil
}

// pinBlock returns partition p's cache block, pinned, computing and
// publishing it on a miss, together with the matching unpin. Blocks live
// on the partition's affine executor, so repeated jobs find them in the
// same executor's store — but the affinity is blacklist-aware and can
// change between pin and unpin, so the executor is resolved exactly once
// here and the returned unpin targets the same store the pin hit.
// Production is serialized per partition.
func (d *Dataset[T]) pinBlock(p int) (cache.Block, func(), error) {
	ex := d.ctx.executorFor(p)
	id := cache.BlockID{Dataset: d.id, Partition: p}
	unpin := func() { ex.cache.Unpin(id) }
	blk, ok, err := ex.cache.Get(id)
	if err != nil {
		return nil, nil, err
	}
	if ok {
		return blk, unpin, nil
	}
	d.blockMu[p].Lock()
	defer d.blockMu[p].Unlock()
	// Another task may have produced it while we waited.
	blk, ok, err = ex.cache.Get(id)
	if err != nil {
		return nil, nil, err
	}
	if ok {
		return blk, unpin, nil
	}
	blk, err = d.buildBlock(p, ex)
	if err != nil {
		return nil, nil, err
	}
	if err := ex.cache.Put(id, blk); err != nil {
		return nil, nil, err
	}
	return blk, unpin, nil
}

// buildBlock computes partition p straight into its cache representation:
// each record is marshalled or decomposed as the fused chain yields it, and
// only the object level, whose representation is the slice, collects one.
func (d *Dataset[T]) buildBlock(p int, ex *Executor) (cache.Block, error) {
	records := iter.Seq[T](d.compute(p))
	switch d.level {
	case StorageObjects:
		return cache.NewObjectBlock(slices.Collect(records), d.storage.Estimate, d.storage.Ser), nil
	case StorageSerialized:
		return cache.BuildSerializedBlock(records, d.storage.Ser), nil
	case StorageDeca:
		return cache.BuildDecaBlock(ex.mem, d.storage.Codec, records), nil
	default:
		return nil, fmt.Errorf("engine: dataset %d has unsupported storage level %v", d.id, d.level)
	}
}

// DecaBlockFor returns partition p's decomposed page block, materializing
// it if needed, plus the release that unpins it. It is the raw-bytes
// access path for transformed code (Figure 12): callers read fields
// straight from the pages via the block's Group, then call release. The
// release is bound to the executor the pin actually hit — placement can
// shift between pin and unpin when an executor gets blacklisted.
func DecaBlockFor[T any](d *Dataset[T], p int) (*cache.DecaBlock[T], func(), error) {
	if d.level != StorageDeca {
		return nil, nil, fmt.Errorf("engine: dataset %d is not Deca-persisted (level %v)", d.id, d.level)
	}
	blk, unpin, err := d.pinBlock(p)
	if err != nil {
		return nil, nil, err
	}
	return blk.(*cache.DecaBlock[T]), unpin, nil
}

// LookupFor returns a probe of partition p of d, a ReduceByKey output: its
// merged reduce container where it lies, materialized if need be, runs
// folded back, pinned until the returned release (shuffleState.pin) — for a
// dataset co-partitioned with d, a narrow join. A process that does not
// hold partition p reports the *MissingOutputError a drain would.
func LookupFor[K comparable, V any](d *Dataset[decompose.Pair[K, V]], p int) (func(K) (V, bool), func(), error) {
	notAgg := fmt.Errorf("engine: dataset %d is not a ReduceByKey output", d.id)
	st, ok := d.ctx.shuffleOf(d.id).(*shuffleState[decompose.Pair[K, V]])
	if !ok {
		return nil, nil, notAgg
	}
	buf, err := st.pin(p)
	if err != nil {
		return nil, nil, err
	}
	err = notAgg
	agg, ok := buf.(aggSink[K, V])
	if ok {
		err = agg.FoldRuns()
	}
	if err != nil {
		st.unpin(p)
		return nil, nil, err
	}
	return agg.Lookup, func() { st.unpin(p) }, nil
}

//
// Narrow transformations: fused into the parent's pull loop.
//

// Map applies f to every record.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	return newDataset(d.ctx, d.parts, func(p int) Seq[U] {
		return func(yield func(U) bool) {
			err := d.Iterate(p, func(v T) bool {
				return yield(f(v))
			})
			if err != nil {
				panic(err)
			}
		}
	})
}

// Filter keeps records satisfying pred.
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	return newDataset(d.ctx, d.parts, func(p int) Seq[T] {
		return func(yield func(T) bool) {
			err := d.Iterate(p, func(v T) bool {
				if pred(v) {
					return yield(v)
				}
				return true
			})
			if err != nil {
				panic(err)
			}
		}
	})
}

// FlatMap expands each record into zero or more outputs via emit.
func FlatMap[T, U any](d *Dataset[T], f func(v T, emit func(U))) *Dataset[U] {
	return newDataset(d.ctx, d.parts, func(p int) Seq[U] {
		return func(yield func(U) bool) {
			// emit is built once per partition walk, not per input record.
			stop := false
			emit := func(u U) {
				if stop {
					return
				}
				if !yield(u) {
					stop = true
				}
			}
			err := d.Iterate(p, func(v T) bool {
				f(v, emit)
				return !stop
			})
			if err != nil {
				panic(err)
			}
		}
	})
}

// MapPartitions transforms whole partitions, for setup-heavy UDFs.
func MapPartitions[T, U any](d *Dataset[T], f func(p int, in Seq[T], emit func(U))) *Dataset[U] {
	return newDataset(d.ctx, d.parts, func(p int) Seq[U] {
		return func(yield func(U) bool) {
			in := func(y func(T) bool) {
				if err := d.Iterate(p, y); err != nil {
					panic(err)
				}
			}
			stop := false
			f(p, in, func(u U) {
				if stop {
					return
				}
				if !yield(u) {
					stop = true
				}
			})
		}
	})
}
