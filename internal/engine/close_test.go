package engine

import (
	"net"
	"sync"
	"testing"

	"deca/internal/chaos"
	"deca/internal/decompose"
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
