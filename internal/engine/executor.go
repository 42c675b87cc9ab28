package engine

import (
	"deca/internal/cache"
	"deca/internal/memory"
	"deca/internal/obs"
)

// Executor is one worker of the local cluster: it owns a private page
// memory manager, cache manager and counter set, mirroring a Spark executor's
// heap (§4.1). Partitions map to executors by a deterministic affinity
// (partition index mod executor count), so a dataset's cache blocks and a
// map task's shuffle buffers always live on the executor that computed
// them; reduce tasks reach the other executors' map output through the
// context's transport.
type Executor struct {
	id    int
	mem   *memory.Manager
	cache *cache.Manager
	// counters holds what the engine counts for this executor in this
	// process; Context.ExecCounters reads the whole vector.
	counters obs.Counters
}

// ID returns the executor's index in [0, NumExecutors).
func (e *Executor) ID() int { return e.id }

// Memory returns the executor's page memory manager.
func (e *Executor) Memory() *memory.Manager { return e.mem }
