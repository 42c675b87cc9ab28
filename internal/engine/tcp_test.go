package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"deca/internal/chaos"
	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/transport"
)

func tcpCtx(t *testing.T, mode Mode, execs int) *Context {
	t.Helper()
	ctx := New(Config{
		NumExecutors:  execs,
		Parallelism:   2,
		Mode:          mode,
		PageSize:      4096,
		SpillDir:      t.TempDir(),
		TransportKind: TransportTCP,
	})
	t.Cleanup(ctx.Close)
	return ctx
}

// TestTCPTransportEquivalence: the same WC job over the TCP transport
// produces the in-process answer in every mode, with real wire traffic.
func TestTCPTransportEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeSparkSer, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			want := wordCountOn(t, clusterCtx(t, mode, 4))
			ctx := tcpCtx(t, mode, 4)
			got := wordCountOn(t, ctx)
			if !reflect.DeepEqual(got, want) {
				t.Error("TCP-transport result differs from in-process run")
			}
			if m := ctx.Counters(); m[obs.RemoteShuffleFetches] == 0 || m[obs.RemoteShuffleBytes] == 0 {
				t.Errorf("expected wire traffic, counters = %v", m)
			}
			// Every executor's pages are free once shuffles release.
			ctx.ReleaseAllShuffles()
			if in := ctx.Counters()[obs.PageBytesInUse]; in != 0 {
				t.Errorf("pages leaked after release: %d bytes", in)
			}
		})
	}
}

// TestTCPTransportGroupAndSort covers both containers' wire frames through
// the full engine path: GroupByKey's lists and ReduceByKey's sums, each
// sorted by key, against the in-process answers.
func TestTCPTransportGroupAndSort(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			var pairs []decompose.Pair[int64, int64]
			for i := int64(0); i < 400; i++ {
				pairs = append(pairs, KV(i%23, i))
			}
			inproc := clusterCtx(t, mode, 4)
			tcp := tcpCtx(t, mode, 4)

			wantG, err := CollectMap(GroupByKey(Parallelize(inproc, pairs, 8), int64Ops(4)))
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := CollectMap(GroupByKey(Parallelize(tcp, pairs, 8), int64Ops(4)))
			if err != nil {
				t.Fatal(err)
			}
			if len(gotG) != len(wantG) {
				t.Fatalf("group keys = %d, want %d", len(gotG), len(wantG))
			}
			for k, vs := range gotG {
				sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
				ws := wantG[k]
				sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
				if !reflect.DeepEqual(vs, ws) {
					t.Errorf("key %d: group mismatch over TCP", k)
				}
			}

			wantR := collectByKey(t, ReduceByKey(Parallelize(inproc, pairs, 8), int64Ops(4), addI64))
			gotR := collectByKey(t, ReduceByKey(Parallelize(tcp, pairs, 8), int64Ops(4), addI64))
			if !reflect.DeepEqual(gotR, wantR) {
				t.Error("reduced output, sorted by key, differs between transports")
			}
			if tcp.Counters()[obs.RemoteShuffleBytes] == 0 {
				t.Error("expected wire traffic on group/reduce shuffles")
			}
		})
	}
}

// TestTCPSpilledShuffleEquivalence drives the wire path with spill runs in
// the frames (tiny spill threshold), in both Deca and object modes.
func TestTCPSpilledShuffleEquivalence(t *testing.T) {
	for _, mode := range []Mode{ModeSpark, ModeDeca} {
		t.Run(mode.String(), func(t *testing.T) {
			mk := func(kind TransportKind) *Context {
				ctx := New(Config{
					NumExecutors:          4,
					Parallelism:           2,
					Mode:                  mode,
					PageSize:              1024,
					SpillDir:              t.TempDir(),
					ShuffleSpillThreshold: 512,
					TransportKind:         kind,
				})
				t.Cleanup(ctx.Close)
				return ctx
			}
			var pairs []decompose.Pair[int64, int64]
			for i := int64(0); i < 3000; i++ {
				pairs = append(pairs, KV(i%97, int64(1)))
			}
			sum := func(ctx *Context) map[int64]int64 {
				red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4),
					func(a, b int64) int64 { return a + b })
				got, err := CollectMap(red)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}
			want := sum(mk(TransportInProcess))
			tcp := mk(TransportTCP)
			if got := sum(tcp); !reflect.DeepEqual(got, want) {
				t.Error("spilled shuffle result differs over TCP")
			}
			if m := tcp.Counters(); m[obs.ShuffleSpillBytes] == 0 {
				t.Error("test intended to exercise spills but none happened")
			}
		})
	}
}

// TestLineageRepairOnLostMapOutput is the recovery contract on both
// transports: a map output that is definitively gone before the reduce
// stage runs does not fail the job — the reduce attempt reports it, the
// scheduler re-runs exactly that map task from lineage, and the retried
// reduce produces the right answer with nothing leaked.
func TestLineageRepairOnLostMapOutput(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			ctx := New(Config{
				NumExecutors:  4,
				Parallelism:   2,
				Mode:          ModeDeca,
				PageSize:      1024,
				SpillDir:      t.TempDir(),
				TransportKind: kind,
			})
			defer ctx.Close()
			// Lose one map task's outputs between the stages: purge its
			// registrations so every lookup is a definitive miss.
			ctx.testAfterMapStage = func(id transport.ShuffleID) {
				var ids []transport.MapOutputID
				for r := 0; r < 4; r++ {
					ids = append(ids, transport.MapOutputID{Shuffle: id, MapTask: 0, Reduce: r})
				}
				for _, pl := range ctx.plane.Commit(ids) {
					if rel, ok := pl.Data.(releasable); ok {
						rel.Release()
					}
				}
			}
			var pairs []decompose.Pair[int64, int64]
			want := make(map[int64]int64)
			for i := int64(0); i < 1000; i++ {
				pairs = append(pairs, KV(i%53, i))
				want[i%53] += i
			}
			red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4),
				func(a, b int64) int64 { return a + b })
			got, err := CollectMap(red)
			if err != nil {
				t.Fatalf("job did not recover from the lost map output: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("recovered result differs from the true sums")
			}
			if n := ctx.Counters()[obs.LineageMapReruns]; n != 1 {
				t.Errorf("LineageMapReruns = %d, want 1 (only the lost map task re-runs)", n)
			}
			ctx.ReleaseAllShuffles()
			if n := ctx.Counters()[obs.ShuffleOutputsPinned]; n != 0 {
				t.Errorf("%d payloads still registered after release", n)
			}
			if in := ctx.Counters()[obs.PageBytesInUse]; in != 0 {
				t.Errorf("recovered job leaked %d bytes of pages", in)
			}
		})
	}
}

// TestDropOnFailedReduceStage is the error-path contract on both
// transports: when the reduce stage fails for good (chaos kills every
// merge attempt), every map output still registered must come back out
// of the transport and be released — no leaked pages, no live groups,
// nothing left pending.
func TestDropOnFailedReduceStage(t *testing.T) {
	for _, kind := range []TransportKind{TransportInProcess, TransportTCP} {
		t.Run(kind.String(), func(t *testing.T) {
			inj := chaos.New(1)
			inj.MergeFailMatch = func(stage, part, attempt, consumed int) bool { return true }
			ctx := New(Config{
				NumExecutors:  4,
				Parallelism:   2,
				Mode:          ModeDeca,
				PageSize:      1024,
				SpillDir:      t.TempDir(),
				TransportKind: kind,
				Chaos:         inj,
			})
			defer ctx.Close()
			var pairs []decompose.Pair[int64, int64]
			for i := int64(0); i < 1000; i++ {
				pairs = append(pairs, KV(i%53, i))
			}
			red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4),
				func(a, b int64) int64 { return a + b })
			_, err := Collect(red)
			if err == nil {
				t.Fatal("expected the reduce stage to fail")
			}
			if !strings.Contains(err.Error(), "injected") {
				t.Fatalf("unexpected error: %v", err)
			}
			// The transport must hold nothing and every page group across
			// every executor must be back at refcount zero.
			if n := ctx.Counters()[obs.ShuffleOutputsPinned]; n != 0 {
				t.Errorf("%d payloads still registered after failed reduce", n)
			}
			if in := ctx.Counters()[obs.PageBytesInUse]; in != 0 {
				t.Errorf("failed reduce leaked %d bytes of pages", in)
			}
			for _, ex := range ctx.Executors() {
				if st := ex.Memory().Counters(); st[obs.PageGroupsLive] != 0 {
					t.Errorf("executor %d still has %d live groups", ex.ID(), st[obs.PageGroupsLive])
				}
			}
		})
	}
}

// TestTCPFetchChargesWireBytes: a remote wire payload's in-flight charge
// is its frame length, so the prefetch budget throttles on real bytes.
func TestTCPFetchChargesWireBytes(t *testing.T) {
	pl := transport.Payload{Data: make([]byte, 1234), Bytes: 1234, MemBytes: 1234}
	if got := fetchCharge(pl); got != 1234 {
		t.Errorf("fetchCharge = %d, want 1234", got)
	}
}
