package engine

import (
	"fmt"
	"iter"
	"reflect"
	"slices"
	"sync"

	"deca/internal/cache"
	"deca/internal/decompose"
	"deca/internal/serial"
)

// Dataset is the engine's RDD: a lazy, partitioned collection. Transform
// it with the free functions (Map, FlatMap, ReduceByKey, ...) — Go methods
// cannot introduce type parameters — and materialize it with an action
// (Collect, Reduce, Count, Materialize).
type Dataset[T any] struct {
	ctx     *Context
	id      int
	parts   int
	compute func(p int) Seq[T]
	// walk, where set, walks partition p as compute does, each record's
	// memory lent to yield for the call if lend is (keyedShuffle; Map's rule).
	walk func(p int, lend bool, yield func(T) bool)
	// size, where set, counts partition p's records without walking them.
	size func(p int) (int64, error)

	// Caching state (§4.2 "cache blocks" container). blockMu serializes
	// block production per partition so concurrent tasks neither compute a
	// partition twice nor replace a block another task has pinned.
	storage   Storage[T]
	blockMu   []sync.Mutex
	persisted bool
	// fromPages, where set, builds the Deca block from the pages of the
	// shuffle container d drains (GroupByKey), not from d's records.
	fromPages func(p int, ex *Executor) (cache.Block, error)
}

// Storage bundles the per-type helpers a cache block may need: a heap-size
// estimator for ModeSpark's object blocks, a serializer for ModeSparkSer's
// serialized blocks and an object block's swap, and a codec for ModeDeca's
// page blocks. A mode ignores the helpers it does not use.
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

// Persist marks the dataset for caching on first materialization, in the
// representation its context's mode picks (§6: the modes differ in how a
// cache block is held). It returns d for chaining. ModeSpark wants Estimate
// (and Ser to allow swap), ModeSparkSer requires Ser, ModeDeca requires
// Codec — enforced here so the failure happens at plan time, not mid-job.
func (d *Dataset[T]) Persist(s Storage[T]) *Dataset[T] {
	switch d.ctx.Mode() {
	case ModeSparkSer:
		if s.Ser == nil {
			panic("engine: ModeSparkSer requires Storage.Ser")
		}
	case ModeDeca:
		if s.Codec == nil {
			panic("engine: ModeDeca requires Storage.Codec")
		}
	}
	d.storage = s
	d.blockMu = make([]sync.Mutex, d.parts)
	d.persisted = true
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
// materialized if needed and answers from its block, a dataset with a size
// from its container — no record is decoded to be counted.
func (d *Dataset[T]) count(p int) (int64, error) {
	if d.persisted {
		blk, unpin, err := d.pinBlock(p)
		if err != nil {
			return 0, err
		}
		defer unpin()
		return int64(blk.Count()), nil
	}
	if d.size != nil {
		return d.size(p)
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

// buildBlock computes partition p straight into its mode's cache
// representation: each record is marshalled or decomposed as the fused chain
// yields it, and only ModeSpark, whose representation is the slice, collects
// one.
func (d *Dataset[T]) buildBlock(p int, ex *Executor) (cache.Block, error) {
	records := iter.Seq[T](d.compute(p))
	switch mode := d.ctx.Mode(); mode {
	case ModeSpark:
		return cache.NewObjectBlock(slices.Collect(records), d.storage.Estimate, d.storage.Ser), nil
	case ModeSparkSer:
		return cache.BuildSerializedBlock(records, d.storage.Ser), nil
	case ModeDeca:
		if d.fromPages != nil {
			return d.fromPages(p, ex)
		}
		return cache.BuildDecaBlock(ex.mem, d.storage.Codec, records), nil
	default:
		return nil, fmt.Errorf("engine: dataset %d cannot be cached in unknown %v", d.id, mode)
	}
}

// DecaBlockFor returns partition p's decomposed page block, materializing
// it if needed, plus the release that unpins it. It is the raw-bytes
// access path for transformed code (Figure 12): callers read fields
// straight from the pages via the block's Group, then call release. The
// release is bound to the executor the pin actually hit — placement can
// shift between pin and unpin when an executor gets blacklisted.
//
//deca:owns
func DecaBlockFor[T any](d *Dataset[T], p int) (*cache.DecaBlock[T], func(), error) {
	if !d.persisted || d.ctx.Mode() != ModeDeca {
		return nil, nil, fmt.Errorf("engine: dataset %d is not persisted in ModeDeca (%v)", d.id, d.ctx.Mode())
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
//
//deca:owns
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

// Map applies f to every record. An f whose result holds no pointer
// (pointerFree) borrows its argument for the call: a parent that lends (a
// Deca ReduceByKey output, not persisted) reuses a key's bytes once f
// returns. An f that must keep its argument returns it, and is then given
// an owned one; one that keeps it in captured state breaks Spark's closure
// model, and reads blanks under the decapoison build.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	borrows := pointerFree(reflect.TypeFor[U]())
	return newDataset(d.ctx, d.parts, func(p int) Seq[U] {
		return func(yield func(U) bool) {
			each := func(v T) bool { return yield(f(v)) }
			if borrows && d.walk != nil && !d.persisted {
				d.walk(p, true, each) // a persisted parent is read through its block
			} else if err := d.Iterate(p, each); err != nil {
				panic(err)
			}
		}
	})
}

// pointerFree reports whether a value of type t holds no pointer: a bool or
// number (not uintptr, which may hold an address), or an array or struct of
// them.
func pointerFree(t reflect.Type) bool {
	switch k := t.Kind(); k {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	default:
		return k >= reflect.Bool && k <= reflect.Complex128 && k != reflect.Uintptr
	}
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
