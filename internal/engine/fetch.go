package engine

import (
	"sync"

	"deca/internal/obs"
	"deca/internal/transport"
)

// The fetch pipeline's shape. Every run uses these values; tests reach
// other shapes through Context.fetchWorkers and Context.fetchBudget.
const (
	// fetchConcurrency bounds how many map outputs a reduce task fetches
	// ahead of its merge loop.
	fetchConcurrency = 4
	// maxFetchBytesInFlight caps the estimated bytes a reduce task has
	// fetched but not yet merged (Spark's spark.reducer.maxSizeInFlight).
	// It can overshoot by up to fetchConcurrency payloads, because an
	// output's size is only known once it is fetched.
	maxFetchBytesInFlight = 48 << 20
	// fetchRetries is how many times one map-output fetch that failed with
	// a transient transport error (socket fault, timeout, injected fault)
	// is re-tried before the error is final.
	fetchRetries = 2
)

// fetchResult is one map output delivered by the prefetch pipeline.
type fetchResult struct {
	pl   transport.Payload
	ok   bool  // false: nothing registered under the id (missing output)
	err  error // the final transient fetch error, after retries ran out
	full bool  // delivered into its pipeline slot, not yet taken by wait
}

// fetchPipeline overlaps a reduce task's M map-output fetches with its
// merge loop — the engine's analogue of Spark's pipelined shuffle reads
// under spark.reducer.maxSizeInFlight. A small worker pool fetches
// outputs ahead of the merger, bounded two ways: at most fetchConcurrency
// outstanding fetches, and at most maxFetchBytesInFlight estimated bytes
// fetched but not yet merged. Delivery is strictly in map-task order so
// the merge remains deterministic and identical to the sequential path.
//
// Each MapOutputID is fetched exactly once per attempt, by exactly one
// worker, and per-executor local/remote locality is accounted at fetch
// time on the destination executor. Serving is non-consuming under the
// stage-commit protocol — the source registration stays pinned, so a
// retried attempt re-fetches the same outputs. The
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

	maxBytes int64

	mu       sync.Mutex
	cond     *sync.Cond // under mu: budget freed, a slot filled, or aborted
	inFlight int64      // bytes fetched but not yet merged
	next     int        // next map task index to fetch
	aborted  bool
	slots    []fetchResult // one single-use slot per map task, under mu

	wg sync.WaitGroup
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
		maxBytes: c.fetchBudget,
		slots:    make([]fetchResult, m),
	}
	fp.cond = sync.NewCond(&fp.mu)
	workers := max(min(c.fetchWorkers, m), 1)
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
		for fp.inFlight >= fp.maxBytes && !fp.aborted {
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
			fp.addInFlightGauge(fetchCharge(res.pl))
			fp.ctx.noteFetch(fp.ex, res.pl)
		}
		fp.mu.Lock()
		fp.inFlight += fetchCharge(res.pl)
		res.full = true
		fp.slots[m] = res
		fp.mu.Unlock()
		fp.cond.Broadcast()
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
// fetchRetries times before the error is given up as final. Every failed
// try is counted on the fetching executor and traced. A definitive miss
// (ok=false, nil error) is never retried — the output is not registered
// anywhere; the reduce body collects such ids and reports them for
// map-task-granular lineage repair.
func (fp *fetchPipeline) fetchWithRetry(id transport.MapOutputID) fetchResult {
	for try := 0; ; try++ {
		pl, ok, err := fp.fetch(id)
		if err == nil {
			return fetchResult{pl: pl, ok: ok}
		}
		fp.ex.counters[obs.ShuffleFetchFailures].Add(1)
		fp.ctx.rec.Record(obs.Event{
			Kind: obs.KindFetchFailed, Exec: int32(fp.ex.id),
			Shuffle: int64(id.Shuffle), Part: int32(id.Reduce), A: int64(id.MapTask),
			Key: err.Error(),
		})
		if try >= fetchRetries {
			return fetchResult{err: err}
		}
	}
}

// fetch is one try: the chaos injector's fetch fault, when one is
// configured, then the plane — as shuffleReduceBody consults MergeFault
// after each merged output. An injected error or loss fires before any
// wire byte moves, so the registration is never consumed by it.
func (fp *fetchPipeline) fetch(id transport.MapOutputID) (transport.Payload, bool, error) {
	if f := fp.ctx.conf.Chaos; f != nil {
		if lost, err := f.FetchFault(id); lost || err != nil {
			return transport.Payload{}, false, err
		}
	}
	return fp.ctx.plane.Fetch(id, fp.ex.id, fp.open)
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
	fp.mu.Lock()
	defer fp.mu.Unlock()
	for !fp.slots[m].full {
		fp.cond.Wait()
	}
	res := fp.slots[m]
	fp.slots[m] = fetchResult{}
	return res
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
// payload — the airtight error path: a payload that left the transport
// must be released by exactly one owner. It is idempotent for payloads
// (each slot is drained once) and safe after full consumption, where
// every slot is already empty.
func (fp *fetchPipeline) shutdown() {
	fp.mu.Lock()
	fp.aborted = true
	fp.mu.Unlock()
	fp.cond.Broadcast()
	fp.wg.Wait()
	for i := range fp.slots {
		releasePayloads(fp.slots[i].pl) // a taken or empty slot, a miss or an error carries none
		fp.slots[i] = fetchResult{}
	}
	// Whatever was fetched but never merged leaves the gauge here, so an
	// aborted attempt cannot leak in-flight bytes into the ops view.
	fp.mu.Lock()
	rem := fp.inFlight
	fp.inFlight = 0
	fp.mu.Unlock()
	fp.addInFlightGauge(-rem)
}
