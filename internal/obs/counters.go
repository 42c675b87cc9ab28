package obs

import "sync/atomic"

// Counter names one of a run's counters. The set of counters is this one
// enum and its table: every other place that handles them — the heartbeat
// snapshot, the cluster sum, /metrics, workloads.Result — loops over the
// table, so adding a counter is one constant, one table row and its
// increment site.
//
// The numeric value is the counter's position in the heartbeat snapshot
// (internal/ctl): append new counters before NumCounters, never renumber.
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
	SpeculativeLaunched
	SpeculativeWon
	ExecutorsBlacklisted
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
	// The executor's block store, as cache.Stats keeps it: lookups served
	// and missed, blocks evicted, evictions that discarded data
	// (non-swappable), bytes written to swap files (each block once,
	// however often it is evicted) and read back.
	CacheHits:         {"cache_hits", false, ScopeExecutor},
	CacheMisses:       {"cache_misses", false, ScopeExecutor},
	CacheEvictions:    {"cache_evictions", false, ScopeExecutor},
	CacheDrops:        {"cache_drops", false, ScopeExecutor},
	CacheSwapOutBytes: {"cache_swap_out_bytes", false, ScopeExecutor},
	CacheSwapInBytes:  {"cache_swap_in_bytes", false, ScopeExecutor},
	// Bytes of cache blocks resident now.
	CacheMemBytes: {"cache_mem_bytes", true, ScopeExecutor},
	// The serve path, as the executor's transport node keeps it: pages
	// served in place from their pinned groups (writev, never staged into
	// a frame buffer), spill-file bytes shipped through the
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
	// twice contributes three runs and up to three failures, and a
	// speculative duplicate counts like any other attempt.
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
	// Straggler duplicates launched, and how many beat the original attempt.
	SpeculativeLaunched: {"speculative_launched", false, ScopeDriver},
	SpeculativeWon:      {"speculative_won", false, ScopeDriver},
	// Times the executor was removed from placement: after repeated attempt
	// failures, or because its process died.
	ExecutorsBlacklisted: {"executors_blacklisted", false, ScopeDriver},
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
