package engine

import (
	"sync"

	"deca/internal/obs"
	"deca/internal/transport"
)

// fetchResult is one map output delivered by the prefetch pipeline.
type fetchResult struct {
	pl  transport.Payload
	ok  bool  // false: nothing registered under the id (missing output)
	err error // the final transient fetch error, after retries ran out
}

// fetchPipeline overlaps a reduce task's M map-output fetches with its
// merge loop — the engine's analogue of Spark's pipelined shuffle reads
// under spark.reducer.maxSizeInFlight. A small worker pool fetches
// outputs ahead of the merger, bounded two ways: at most FetchConcurrency
// outstanding fetches, and at most MaxFetchBytesInFlight estimated bytes
// fetched but not yet merged. Delivery is strictly in map-task order so
// the merge remains deterministic and identical to the sequential path.
//
// Each MapOutputID is fetched exactly once per attempt, by exactly one
// worker, and per-executor local/remote locality is accounted at fetch
// time on the destination executor. Serving is non-consuming under the
// stage-commit protocol — the source registration stays pinned, so a
// retried or speculative attempt re-fetches the same outputs. The
// deadlock shape of ordered delivery + byte budgeting is
// avoided by construction: workers acquire the budget *before* taking a
// ticket (tickets are issued in m order), and a fetch in progress never
// waits — so the lowest undelivered output is always either delivered or
// being fetched, and the merger always makes progress.
type fetchPipeline struct {
	ctx  *Context
	ex   *Executor
	shuf transport.ShuffleID
	r    int
	m    int // number of map outputs
	open transport.FrameOpen

	maxBytes int64 // <0: unbounded

	mu       sync.Mutex
	cond     *sync.Cond
	inFlight int64 // bytes fetched but not yet merged
	next     int   // next map task index to fetch
	aborted  bool

	slots []chan fetchResult // one single-use slot per map task
	wg    sync.WaitGroup
}

// startFetchPipeline launches the workers for reduce task r on executor
// ex. open is the streaming-decode hook handed to every Transport.Fetch.
// The caller must consume every slot via wait (in order) and finish with
// shutdown, which is safe to call on every path.
func (c *Context) startFetchPipeline(shuf transport.ShuffleID, r, m int, ex *Executor, open transport.FrameOpen) *fetchPipeline {
	fp := &fetchPipeline{
		ctx:      c,
		ex:       ex,
		shuf:     shuf,
		r:        r,
		m:        m,
		open:     open,
		maxBytes: c.conf.MaxFetchBytesInFlight,
		slots:    make([]chan fetchResult, m),
	}
	fp.cond = sync.NewCond(&fp.mu)
	for i := range fp.slots {
		fp.slots[i] = make(chan fetchResult, 1)
	}
	workers := c.conf.FetchConcurrency
	if workers > m {
		workers = m
	}
	if workers < 1 {
		workers = 1
	}
	fp.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go fp.worker()
	}
	return fp
}

// worker pulls tickets (map indices, in order) and fetches their outputs.
func (fp *fetchPipeline) worker() {
	defer fp.wg.Done()
	for {
		fp.mu.Lock()
		for fp.maxBytes >= 0 && fp.inFlight >= fp.maxBytes && !fp.aborted {
			fp.cond.Wait()
		}
		if fp.aborted || fp.next >= fp.m {
			fp.mu.Unlock()
			return
		}
		m := fp.next
		fp.next++
		fp.mu.Unlock()

		id := transport.MapOutputID{Shuffle: fp.shuf, MapTask: m, Reduce: fp.r}
		res := fp.fetchWithRetry(id)
		if res.ok {
			charge := fetchCharge(res.pl)
			fp.mu.Lock()
			fp.inFlight += charge
			fp.mu.Unlock()
			fp.addInFlightGauge(charge)
			fp.ctx.noteFetch(fp.ex, res.pl)
		}
		fp.slots[m] <- res // cap 1: never blocks
	}
}

// addInFlightGauge mirrors the pipeline's in-flight byte budget into the
// destination executor's gauge, so the ops plane can watch reduce-side
// fetch pressure live.
func (fp *fetchPipeline) addInFlightGauge(delta int64) {
	if delta == 0 {
		return
	}
	fp.ex.counters[obs.FetchInFlightBytes].Add(delta)
}

// fetchWithRetry is the per-fetch retry loop: a transient transport error
// (socket fault, timeout, injected fault) leaves the output registered,
// so the fetch is re-tried against the serving executor up to
// Config.FetchRetries times before the error is given up as final. A
// definitive miss (ok=false, nil error) is never retried — the output is
// not registered anywhere; the reduce body collects such ids and reports
// them for map-task-granular lineage repair.
func (fp *fetchPipeline) fetchWithRetry(id transport.MapOutputID) fetchResult {
	retries := fp.ctx.conf.FetchRetries
	for try := 0; ; try++ {
		pl, ok, err := fp.ctx.trans.Fetch(id, fp.ex.id, fp.open)
		if err == nil {
			return fetchResult{pl: pl, ok: ok}
		}
		if try >= retries {
			return fetchResult{err: err}
		}
	}
}

// fetchCharge is the in-flight budget cost of a payload: the bytes a
// fetch brings into memory. Spilled bytes stay on disk until the merge
// drains them, so charging them (Payload.Bytes includes them for traffic
// accounting) would serialize exactly the spill-heavy stages pipelining
// helps most; a fully-spilled output charges zero and never throttles
// the pipeline.
func fetchCharge(pl transport.Payload) int64 {
	return pl.MemBytes
}

// wait blocks until map output m is delivered. Outputs must be consumed
// in order; consuming releases nothing — call merged once the payload's
// records are folded in, so its bytes leave the in-flight budget.
func (fp *fetchPipeline) wait(m int) fetchResult {
	return <-fp.slots[m]
}

// merged returns a consumed payload's charge to the in-flight budget.
func (fp *fetchPipeline) merged(pl transport.Payload) {
	fp.mu.Lock()
	fp.inFlight -= fetchCharge(pl)
	fp.mu.Unlock()
	fp.addInFlightGauge(-fetchCharge(pl))
	fp.cond.Broadcast()
}

// shutdown stops the workers and releases every fetched-but-unconsumed
// payload through release — the airtight error path: a payload that left
// the transport must be released by exactly one owner. It is idempotent
// for payloads (each slot is drained once) and safe after full
// consumption, where every slot is already empty.
func (fp *fetchPipeline) shutdown(release func(transport.Payload)) {
	fp.mu.Lock()
	fp.aborted = true
	fp.mu.Unlock()
	fp.cond.Broadcast()
	fp.wg.Wait()
	for _, ch := range fp.slots {
		select {
		case res := <-ch:
			if res.ok {
				release(res.pl)
			}
		default:
		}
	}
	// Whatever was fetched but never merged leaves the gauge here, so an
	// aborted attempt cannot leak in-flight bytes into the ops view.
	fp.mu.Lock()
	rem := fp.inFlight
	fp.inFlight = 0
	fp.mu.Unlock()
	fp.addInFlightGauge(-rem)
}
