package engine

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/shuffle"
)

// lookupProgram is the mirrored LookupFor job: a reduced dataset probed
// partition by partition through LookupFor — as materialized, then again
// after a ReleaseShuffle, which the probes re-materialize — and then
// collected. It returns the dataset, each round's union of hits and the
// collected answer.
func lookupProgram(ctx *Context) (*Dataset[decompose.Pair[int64, int64]], []map[int64]int64, map[int64]int64, error) {
	const keys, parts = 23, 4
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 400; i++ {
		pairs = append(pairs, KV(i%keys, i))
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 4), int64Ops(parts), func(a, b int64) int64 { return a + b })
	var probed []map[int64]int64
	for round := 0; round < 2; round++ {
		if round == 1 {
			ctx.ReleaseShuffle(red.ID())
		}
		hits, err := RunPartitionsCollect(ctx, parts, func(p int) (map[int64]int64, error) {
			probe, release, err := LookupFor(red, p)
			if err != nil {
				return nil, err
			}
			defer release()
			out := map[int64]int64{}
			for k := int64(-1); k <= keys; k++ { // -1 and keys are in no partition
				v, ok := probe(k)
				if !ok {
					continue
				}
				if home := shuffle.Partition(shuffle.Int64Key().Hash(k), parts); home != p {
					return nil, fmt.Errorf("partition %d answered key %d of partition %d", p, k, home)
				}
				out[k] = v
			}
			return out, nil
		})
		if err != nil {
			return nil, nil, nil, err
		}
		union := map[int64]int64{}
		for _, h := range hits {
			maps.Copy(union, h)
		}
		probed = append(probed, union)
	}
	want, err := CollectMap(red)
	return red, probed, want, err
}

// spillCtx spills every map buffer after a few records, so each merged
// reduce output holds spill runs LookupFor must fold back before a probe.
func spillCtx(t *testing.T, mode Mode) *Context {
	ctx := New(Config{NumExecutors: 2, Parallelism: 2, Mode: mode, PageSize: 4096,
		SpillDir: t.TempDir(), ShuffleSpillThreshold: 64})
	t.Cleanup(ctx.Close)
	return ctx
}

func checkProbes(t *testing.T, probed []map[int64]int64, want map[int64]int64) {
	t.Helper()
	if len(want) != 23 {
		t.Fatalf("CollectMap holds %d keys, want 23", len(want))
	}
	for round, got := range probed {
		if !maps.Equal(got, want) {
			t.Errorf("round %d: the probes found %v, CollectMap %v", round, got, want)
		}
	}
}

// TestLookupForAgreesWithCollectMap: probing every partition of a reduced
// dataset finds exactly what CollectMap collects, each key in its own
// partition, over both aggregation buffers and over TCP; a released
// dataset is re-materialized by the probes; and only a ReduceByKey output
// can be probed.
func TestLookupForAgreesWithCollectMap(t *testing.T) {
	for _, c := range []struct {
		name string
		ctx  func(t *testing.T) *Context
	}{
		{"inprocess-deca", func(t *testing.T) *Context { return clusterCtx(t, ModeDeca, 2) }},
		{"inprocess-spark", func(t *testing.T) *Context { return clusterCtx(t, ModeSpark, 2) }},
		{"tcp-deca", func(t *testing.T) *Context { return tcpCtx(t, ModeDeca, 2) }},
		{"spill-deca", func(t *testing.T) *Context { return spillCtx(t, ModeDeca) }},
		{"spill-spark", func(t *testing.T) *Context { return spillCtx(t, ModeSpark) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := c.ctx(t)
			red, probed, want, err := lookupProgram(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkProbes(t, probed, want)
			if spilled := ctx.Counters()[obs.ShuffleSpillBytes] > 0; spilled != strings.HasPrefix(c.name, "spill") {
				t.Errorf("map side spilled: %v", spilled)
			}
			if epoch := ctx.shuffleOf(red.ID()).Epoch(); epoch != 2 {
				t.Errorf("epoch %d after a release and a round of probes, want 2", epoch)
			}
			one := Parallelize(ctx, []decompose.Pair[int64, int64]{KV(int64(1), int64(2))}, 1)
			if _, _, err := LookupFor(GroupByKey(one, int64Ops(1)), 0); err == nil {
				t.Error("LookupFor probed a GroupByKey output")
			}
			if _, _, err := LookupFor(one, 0); err == nil {
				t.Error("LookupFor probed a dataset with no shuffle")
			}
		})
	}
}

// TestMultiprocLookupFor: the same program across executor processes —
// every probe runs where its partition's reduce task left the merged
// buffer — and the driver, which holds no reduce output, is told so.
func TestMultiprocLookupFor(t *testing.T) {
	ctx := programCtx(t, "lookup", TransportMultiproc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		red, probed, want, err := lookupProgram(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		checkProbes(t, probed, want)
		_, _, err = LookupFor(red, 0)
		var missing *MissingOutputError
		if !errors.As(err, &missing) || missing.Dataset != red.ID() || missing.Part != 0 {
			t.Errorf("LookupFor on the driver: %v, want a *MissingOutputError for dataset %d partition 0", err, red.ID())
		}
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("lookup program hung")
	}
}
