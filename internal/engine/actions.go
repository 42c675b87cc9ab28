package engine

import (
	"fmt"
	"slices"

	"deca/internal/decompose"
	"deca/internal/sched"
)

// Actions trigger job execution: they run one task per partition of the
// final dataset on the worker pool, pulling through the fused narrow
// chain and materializing any pending shuffles on the way (the recursive
// stage execution of §4.1's job model).
//
// Every action decomposes into a per-partition *partial* and a fold over
// the partials in partition order (runAction): the partials are one stage
// (runStage — on the partition's executor, wherever that is), the fold runs
// where the job is decided, and every mirrored program continues with the
// folded value (adoptResult). Folding in partition order makes action
// results deterministic across schedules (the fold functions must still be
// associative, as in Spark — they may run in either grouping).

// runAction runs an action: one task per partition computing its partial,
// then the fold. Action stages are numbered in program order (actionKey),
// identically on every mirror.
func runAction[P, R any](ctx *Context, parts int,
	partial func(p int, ex *Executor) (P, error),
	fold func(ps []P) R,
) (R, error) {
	key := ctx.actionKey()
	ps := make([]P, parts)
	if err := runStage(ctx, stage{key: key, parts: denseParts(parts)}, ps,
		func(t sched.Attempt, ex *Executor) (P, error) { return partial(t.Part, ex) }); err != nil {
		var zero R
		return zero, err
	}
	return adoptResult(ctx, key, ps, fold)
}

// recoverErr converts task panics (which the lazy Seq plumbing uses to
// carry errors upward) back into error returns at the action boundary.
func recoverErr(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*err = e
			return
		}
		*err = fmt.Errorf("engine: task panic: %v", r)
	}
}

// partRecords is the partial Collect and CollectMap share: one partition's
// records in order, append-grown.
func partRecords[T any](d *Dataset[T]) func(p int, _ *Executor) ([]T, error) {
	return func(p int, _ *Executor) ([]T, error) {
		var out []T
		if err := d.Iterate(p, func(v T) bool {
			out = append(out, v)
			return true
		}); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// partsLen is the record count of a set of partials.
func partsLen[T any](ps [][]T) (total int) {
	for _, part := range ps {
		total += len(part)
	}
	return total
}

// Collect gathers all records in partition order.
func Collect[T any](d *Dataset[T]) ([]T, error) {
	return runAction(d.ctx, d.parts, partRecords(d),
		func(ps [][]T) []T {
			all := slices.Grow([]T(nil), partsLen(ps)) // nil stays nil for an empty dataset
			for _, part := range ps {
				all = append(all, part...)
			}
			return all
		})
}

// CollectMap gathers a keyed dataset into a map (duplicate keys keep the
// value from the highest partition holding them). The partials are record
// lists, so the one map built is the result, sized for disjoint partials
// (a shuffled dataset's partitions share no key).
func CollectMap[K comparable, V any](d *Dataset[decompose.Pair[K, V]]) (map[K]V, error) {
	return runAction(d.ctx, d.parts, partRecords(d),
		func(ps [][]decompose.Pair[K, V]) map[K]V {
			out := make(map[K]V, partsLen(ps))
			for _, part := range ps {
				for _, kv := range part {
					out[kv.Key] = kv.Value
				}
			}
			return out
		})
}

// Count returns the number of records.
func Count[T any](d *Dataset[T]) (int64, error) {
	return runAction(d.ctx, d.parts,
		func(p int, _ *Executor) (int64, error) { return d.count(p) },
		func(ps []int64) int64 {
			var total int64
			for _, n := range ps {
				total += n
			}
			return total
		})
}

// reduceAcc is a Reduce partial: the partition's fold, or nothing for an
// empty partition. Exported fields so it crosses processes by gob.
type reduceAcc[T any] struct {
	Has bool
	Val T
}

// Reduce folds all records with f (which must be associative and
// commutative, as in Spark). ok is false for an empty dataset.
func Reduce[T any](d *Dataset[T], f func(T, T) T) (zero T, ok bool, err error) {
	acc, err := runAction(d.ctx, d.parts,
		func(p int, _ *Executor) (reduceAcc[T], error) {
			var local reduceAcc[T]
			if err := d.Iterate(p, func(v T) bool {
				if !local.Has {
					local.Val, local.Has = v, true
				} else {
					local.Val = f(local.Val, v)
				}
				return true
			}); err != nil {
				return reduceAcc[T]{}, err
			}
			return local, nil
		},
		func(ps []reduceAcc[T]) reduceAcc[T] {
			var out reduceAcc[T]
			for _, local := range ps {
				if !local.Has {
					continue
				}
				if !out.Has {
					out = local
				} else {
					out.Val = f(out.Val, local.Val)
				}
			}
			return out
		})
	if err != nil {
		return zero, false, err
	}
	return acc.Val, acc.Has, nil
}

// Materialize forces computation (and caching, if persisted) of every
// partition without retaining results — Spark's count()-to-warm-the-cache
// idiom, used by the workloads to separate load time from iteration time
// as the paper's measurements do (§6.2). A persisted partition is built
// and counted from its block, never read back.
func Materialize[T any](d *Dataset[T]) error {
	_, err := Count(d)
	return err
}

// RunPartitions runs fn for each partition index on its affine executor's
// worker pool. It is the escape hatch for transformed code that bypasses
// record iteration and operates on raw cache pages (the Figure 12 access
// path): the workload fetches each partition's DecaBlock and loops over
// bytes itself. In the multi-process deployment fn runs inside the
// partition's executor process; side effects into driver-held state are
// invisible there — use RunPartitionsCollect to get per-partition
// results back.
func RunPartitions(ctx *Context, parts int, fn func(p int) error) error {
	_, err := runAction(ctx, parts,
		func(p int, _ *Executor) (bool, error) {
			if err := fn(p); err != nil {
				return false, err
			}
			return true, nil
		},
		func([]bool) bool { return true })
	return err
}

// RunPartitionsCollect runs fn for each partition index on its affine
// executor and returns the per-partition results in partition order —
// RunPartitions for transformed code that produces a partial per
// partition (the LR/KMeans gradient and centroid loops), deployable
// across processes because the partial travels back as a value instead
// of a closure side effect.
func RunPartitionsCollect[P any](ctx *Context, parts int, fn func(p int) (P, error)) ([]P, error) {
	return runAction(ctx, parts,
		func(p int, _ *Executor) (P, error) { return fn(p) },
		func(ps []P) []P { return ps })
}
