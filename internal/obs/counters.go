package obs

import "sync/atomic"

// Counter names one of a run's counters. The set of counters is this one
// enum and its table: every other place that handles them — the heartbeat
// snapshot, the cluster sum, /metrics, the run record (workloads.Result
// and its -json row) — loops over the table, so adding a counter is one
// constant, one table row and its increment site.
//
// The numeric value is the counter's position in the heartbeat snapshot
// (internal/ctl): append new counters before NumCounters. The first 17
// positions never move; deleting a later counter renumbers the ones after
// it, which a driver and executors of one build agree on. Driver-scoped
// positions never cross the wire.
type Counter uint8

const (
	ShuffleRecords Counter = iota
	ShuffleSpillBytes
	LocalShuffleFetches
	RemoteShuffleFetches
	RemoteShuffleBytes
	CacheHits
	CacheMisses
	CacheEvictions
	CacheDrops
	CacheSwapOutBytes
	CacheSwapInBytes
	CacheMemBytes
	PagesServedZeroCopy
	BytesSendfile
	ServeUserspaceCopyBytes
	FetchInFlightBytes
	CacheSwappedBytes // the last of the 17 positions the first heartbeat layouts carried
	TasksRun
	TasksFailed
	TaskRetries
	LineageMapReruns
	ExecutorsBlacklisted
	ShuffleUncombined
	ShuffleOutputsPinned
	PagesAllocated
	PagesReused
	PagesReleased
	PagesAdopted
	PageBytesInUse
	PageGroupsLive
	ServeFrameBytes
	ShuffleFetchFailures
	ReserveBytes
	FreeListBytes
	FreeListFresh
	NumCounters
)

// Scope says which process keeps a counter's value for an executor.
type Scope uint8

const (
	// ScopeExecutor counters are kept where the executor's data lives: in
	// the one process of an in-process cluster, in the deca-executor
	// process of a multiproc one, from where each heartbeat ships them.
	ScopeExecutor Scope = iota + 1
	// ScopeDriver counters are kept where the scheduler decides, booked on
	// the executor the decision concerns; they never cross the wire.
	ScopeDriver
)

// CounterRow is one counter's entry in the table.
type CounterRow struct {
	// Name is the Prometheus base name: the cluster series is deca_<Name>
	// and the per-executor one deca_exec_<Name>{exec}, each with a _total
	// suffix unless the counter is a gauge.
	Name string
	// Gauge marks a level that may fall (TYPE gauge); the rest only rise.
	Gauge bool
	Scope Scope
}

var counterTable = [NumCounters]CounterRow{
	// Records written into map-side shuffle buffers.
	ShuffleRecords: {"shuffle_records", false, ScopeExecutor},
	// Bytes shuffle buffers spilled to disk under memory pressure, booked
	// when a reduce task merges the buffer, on the executor that filled it
	// (in a multiproc cluster that set lives in the merging process, which
	// ships it under its own executor's id).
	ShuffleSpillBytes: {"shuffle_spill_bytes", false, ScopeExecutor},
	// Map outputs a reduce task fetched from its own executor.
	LocalShuffleFetches: {"local_shuffle_fetches", false, ScopeExecutor},
	// Map outputs a reduce task fetched from another executor, and their
	// estimated volume — what crosses the network on a distributed
	// deployment. Booked on the fetching executor.
	RemoteShuffleFetches: {"remote_shuffle_fetches", false, ScopeExecutor},
	RemoteShuffleBytes:   {"remote_shuffle_bytes", false, ScopeExecutor},
	// The executor's block store, counted by its cache.Manager under the
	// cache lock: lookups served and missed, blocks evicted, evictions
	// that discarded data (non-swappable), bytes written to swap files
	// (each block once, however often it is evicted) and read back.
	CacheHits:         {"cache_hits", false, ScopeExecutor},
	CacheMisses:       {"cache_misses", false, ScopeExecutor},
	CacheEvictions:    {"cache_evictions", false, ScopeExecutor},
	CacheDrops:        {"cache_drops", false, ScopeExecutor},
	CacheSwapOutBytes: {"cache_swap_out_bytes", false, ScopeExecutor},
	CacheSwapInBytes:  {"cache_swap_in_bytes", false, ScopeExecutor},
	// Bytes of cache blocks resident now.
	CacheMemBytes: {"cache_mem_bytes", true, ScopeExecutor},
	// The serve path, counted by the executor's transport node where it
	// serves: pages served in place from their pinned groups (writev, never
	// staged into a frame buffer), spill-file bytes shipped through the
	// sendfile-eligible path, and frame bytes the serve path did stage in
	// user space (headers, key tables, an Encode-only payload's frame). A
	// serve is counted before its bytes leave, so a fetch that returned is
	// always in them and a serve whose write failed is counted all the same.
	// The in-process plane keeps one node for every executor, so there
	// executor 0's values are the whole cluster's and the others' are 0.
	PagesServedZeroCopy:     {"pages_served_zero_copy", false, ScopeExecutor},
	BytesSendfile:           {"bytes_sendfile", false, ScopeExecutor},
	ServeUserspaceCopyBytes: {"serve_userspace_copy_bytes", false, ScopeExecutor},
	// Estimated bytes of map outputs the executor's reduce tasks have
	// fetched but not yet merged.
	FetchInFlightBytes: {"fetch_in_flight_bytes", true, ScopeExecutor},
	// What the cache blocks now on disk only held in memory.
	CacheSwappedBytes: {"cache_swapped_bytes", true, ScopeExecutor},
	// Task *attempts* started and failed on the executor: a task retried
	// twice contributes three runs and up to three failures.
	TasksRun:    {"tasks_run", false, ScopeDriver},
	TasksFailed: {"tasks_failed", false, ScopeDriver},
	// Retry attempts launched after a failure — the recomputed-task volume
	// fault injection causes.
	TaskRetries: {"task_retries", false, ScopeDriver},
	// Map tasks re-run by the lineage repair: a reduce attempt found their
	// outputs definitively lost, and exactly these tasks — not the whole
	// exchange — were recomputed. Booked on the executor the re-run is
	// placed on.
	LineageMapReruns: {"lineage_map_reruns", false, ScopeDriver},
	// Times the executor was removed from placement: after repeated attempt
	// failures, or because its process died.
	ExecutorsBlacklisted: {"executors_blacklisted", false, ScopeDriver},
	// Map-side shuffle buffers that stopped combining: their first Puts
	// were mostly distinct keys, so the rest went into the frame as they
	// came and the reduce side combined them.
	ShuffleUncombined: {"shuffle_uncombined_buffers", false, ScopeExecutor},
	// Map outputs registered on the executor's transport node now, pinned
	// until their consuming stage commits or their shuffle is dropped (the
	// in-process plane's one node reports them all under executor 0).
	ShuffleOutputsPinned: {"shuffle_outputs_pinned", true, ScopeExecutor},
	// The executor's page manager, counted by its memory.Manager under the
	// manager lock: pages and slabs the process's memory reserve cut fresh
	// from a chunk, those it had parked (released by this manager or any
	// other, already resident: the faults a warm process no longer pays),
	// those released back to it, and pages a merged container adopted from
	// the groups it merged (no byte moved).
	PagesAllocated: {"pages_allocated", false, ScopeExecutor},
	PagesReused:    {"pages_reused", false, ScopeExecutor},
	PagesReleased:  {"pages_released", false, ScopeExecutor},
	PagesAdopted:   {"pages_adopted", false, ScopeExecutor},
	// Bytes of pages and slabs live groups and containers hold now, and
	// the page groups not yet released: the leak probes a lifetime end must
	// bring back to zero.
	PageBytesInUse: {"page_bytes_in_use", true, ScopeExecutor},
	PageGroupsLive: {"page_groups_live", true, ScopeExecutor},
	// Frame bytes the executor's transport node served, over the socket or
	// executor-locally, counted where PagesServedZeroCopy is.
	ServeFrameBytes: {"serve_frame_bytes", false, ScopeExecutor},
	// Map-output fetch tries that failed (socket, local or injected) and
	// were retried or given up, booked on the fetching executor.
	ShuffleFetchFailures: {"shuffle_fetch_failures", false, ScopeExecutor},
	// Bytes the process's memory reserve parks now (memory.ReserveBytes).
	// Every manager in a process shares the one reserve, so the level is
	// the process's and is booked once per process: on the first executor
	// of each Context (Context.execCounters). An in-process cluster thus
	// shows it once, on executor 0, and a multiproc cluster's sum adds up
	// each process's reserve, the driver's included.
	ReserveBytes: {"reserve_bytes", true, ScopeExecutor},
	// The process's free lists (freelist.Totals), booked where ReserveBytes
	// is: the bytes they park now, and the values their takes made fresh
	// since the process started. A warm process's job makes none.
	FreeListBytes: {"free_list_bytes", true, ScopeExecutor},
	FreeListFresh: {"free_list_fresh", false, ScopeExecutor},
}

// Row returns the counter's table entry.
func (k Counter) Row() CounterRow { return counterTable[k] }

// Series returns the counter's Prometheus series name under prefix
// ("deca_" or "deca_exec_") and its TYPE.
func (k Counter) Series(prefix string) (name, typ string) {
	r := counterTable[k]
	if r.Gauge {
		return prefix + r.Name, "gauge"
	}
	return prefix + r.Name + "_total", "counter"
}

// Counters is one executor's live counter set, indexed by Counter.
type Counters [NumCounters]atomic.Int64

// Load reads every counter.
func (c *Counters) Load() (v CounterValues) {
	for k := range c {
		v[k] = c[k].Load()
	}
	return v
}

// CounterValues is a read of a counter set: what a heartbeat carries for
// one executor, and what summing executors yields for the cluster.
type CounterValues [NumCounters]int64

// Add sums o into v, gauges included (a cluster's level is the sum of its
// executors').
func (v *CounterValues) Add(o CounterValues) {
	for k := range v {
		v[k] += o[k]
	}
}

// CacheBytes is the cached data's footprint (the paper's "cached data"
// bars, Fig. 9): the bytes resident plus what the blocks now on disk only
// held in memory.
func (v CounterValues) CacheBytes() int64 { return v[CacheMemBytes] + v[CacheSwappedBytes] }

// Named returns the nonzero rows keyed by their table names — the
// "counters" of a deca-bench -json row.
func (v CounterValues) Named() map[string]int64 {
	m := make(map[string]int64)
	for k, n := range v {
		if n != 0 {
			m[counterTable[k].Name] = n
		}
	}
	return m
}
