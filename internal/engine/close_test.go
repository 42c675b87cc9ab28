package engine

import (
	"net"
	"sync"
	"testing"

	"deca/internal/chaos"
	"deca/internal/decompose"
	"deca/internal/obs"
)

// TestCloseIdempotentAfterFailedStage: a stage that errors mid-flight
// (chaos fails every merge attempt until retries run out) must not leave
// the TCP transport leaking listeners or pooled connections, and Close
// must be safe to call repeatedly — including concurrently, the shape of
// an error path racing a deferred Close. Run with -race.
func TestCloseIdempotentAfterFailedStage(t *testing.T) {
	inj := chaos.New(1)
	// Kill every reduce attempt mid-merge, after it has pulled real
	// cross-executor TCP fetches (pooled conns live), so the stage fails
	// only once the scheduler's retries are exhausted.
	inj.MergeFailMatch = func(stage, part, attempt, consumed int) bool { return true }
	ctx := New(Config{
		NumExecutors:  4,
		Parallelism:   2,
		Mode:          ModeDeca,
		PageSize:      1024,
		SpillDir:      t.TempDir(),
		TransportKind: TransportTCP,
		Chaos:         inj,
	})
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 2000; i++ {
		pairs = append(pairs, KV(i%97, i))
	}
	red := ReduceByKey(Parallelize(ctx, pairs, 8), int64Ops(4),
		func(a, b int64) int64 { return a + b })
	if _, err := Count(red); err == nil {
		t.Fatal("reduce stage unexpectedly succeeded with a stolen output")
	}

	addrs := ctx.plane.Addrs()

	// Concurrent + repeated Close: idempotent, race-free.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx.Close()
		}()
	}
	wg.Wait()
	ctx.Close()

	// Every executor listener must be gone.
	for _, addr := range addrs {
		if conn, err := net.Dial("tcp", addr); err == nil {
			conn.Close()
			t.Errorf("listener %s still accepting after Close", addr)
		}
	}
}

// TestClosedContextsRingGoesToTheNext: Close gives the event ring's blocks
// back to the process, where the next Context's ring takes them. A late
// Record and Drain on the closed context — a stage's error path racing its
// Close — reach none of them while the next context runs a job: the closed
// ring records and returns nothing, and the open one keeps every event it
// recorded, in sequence. Run with -race.
func TestClosedContextsRingGoesToTheNext(t *testing.T) {
	conf := Config{Parallelism: 2, Mode: ModeDeca, PageSize: 1024, SpillDir: t.TempDir()}
	count := func(ctx *Context) {
		if n, err := Count(Parallelize(ctx, make([]int64, 64), 8)); err != nil || n != 64 {
			t.Errorf("Count = %d, %v; want 64", n, err)
		}
	}
	a := New(conf)
	count(a)
	a.Close()
	b := New(conf)
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 500 {
			a.rec.Record(obs.Event{Kind: obs.KindStageAbort, Key: "late"})
			if evs := a.rec.Drain(0); evs != nil {
				t.Errorf("the closed context's ring drained %d events", len(evs))
				return
			}
		}
	}()
	count(b)
	wg.Wait()
	evs := b.rec.Drain(0)
	if len(evs) == 0 {
		t.Fatal("the open context recorded no event")
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Key == "late" {
			t.Fatalf("the open context's event %d = %+v: not its own, in sequence", i, e)
		}
	}
}
