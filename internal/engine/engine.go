// Package engine is a from-scratch, single-process reimplementation of the
// Spark execution model the paper builds on (§4.1): datasets are lazy,
// partitioned collections transformed by narrow operators and materialized
// across shuffle boundaries; jobs split into stages at shuffles; tasks run
// in parallel on executor worker pools; datasets can be persisted in
// memory at explicit cache points whose lifetimes end at Unpersist.
//
// The engine is organized as a local cluster: a driver (the Context's
// scheduler) plus NumExecutors executors, each owning a private
// memory.Manager, cache.Manager and counter set, as in the paper's
// per-executor lifetime-managed heaps. Partitions have deterministic
// executor affinity (partition mod executor count), so cache blocks stay
// executor-local across jobs; shuffle map output crosses executors through
// the transport seam (internal/transport). NumExecutors = 1 reproduces the
// original single-executor engine exactly.
//
// The engine runs every workload in one of three execution modes that
// differ only in how the two long-lived container kinds are represented:
//
//	ModeSpark:    object caches, boxed-value shuffle buffers (Spark 1.6)
//	ModeSparkSer: Kryo-style serialized caches, object shuffle buffers
//	ModeDeca:     page-decomposed caches and shuffle buffers
//
// Narrow chains are fused into a single pull loop per partition — the
// engine-level counterpart of the iterator fusion Deca performs in its
// pre-processing phase (§5).
package engine

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"deca/internal/cache"
	"deca/internal/chaos"
	"deca/internal/ctl"
	"deca/internal/gcstats"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/transport"
)

// Mode selects the memory-management strategy, the independent variable of
// every experiment in §6.
type Mode int

const (
	// ModeSpark caches object arrays and buffers boxed values.
	ModeSpark Mode = iota
	// ModeSparkSer caches Kryo-serialized bytes (deserialize on access).
	ModeSparkSer
	// ModeDeca decomposes caches and shuffle buffers into page groups.
	ModeDeca
)

func (m Mode) String() string {
	switch m {
	case ModeSpark:
		return "Spark"
	case ModeSparkSer:
		return "SparkSer"
	case ModeDeca:
		return "Deca"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// TransportKind selects how a single-process cluster's data plane is
// constructed (transport.Plane).
type TransportKind int

const (
	// TransportInProcess serves every fetch from the shared in-process
	// registry (the default): the consumer decodes the map output's wire
	// frame straight off its segments, no socket involved, with the
	// would-be network volume accounted.
	TransportInProcess TransportKind = iota
	// TransportTCP runs one loopback listener per executor and moves
	// cross-executor map output as wire frames over real sockets (writev
	// for pages, sendfile for spill runs); executor-local fetches read the
	// same frame without the socket.
	TransportTCP
)

func (k TransportKind) String() string {
	switch k {
	case TransportInProcess:
		return "inprocess"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
}

// ParseTransportKind resolves the -transport flag values.
func ParseTransportKind(s string) (TransportKind, error) {
	switch s {
	case "", "inprocess":
		return TransportInProcess, nil
	case "tcp":
		return TransportTCP, nil
	default:
		return 0, fmt.Errorf("engine: unknown transport %q (want inprocess or tcp)", s)
	}
}

// DeployKind selects where the executors run: as goroutine pools inside
// this process (TransportKind then says how their shuffles cross), or as
// real OS processes supervised over the control plane.
type DeployKind int

const (
	// DeployInProcess hosts all executors in this process — the default.
	DeployInProcess DeployKind = iota
	// DeployMultiproc spawns each executor as a deca-executor OS process:
	// the driver keeps the scheduler and the shuffle location directory,
	// dispatches task descriptors over the internal/ctl RPC stream, and
	// payload frames flow executor↔executor over the TCP data plane.
	DeployMultiproc
)

func (k DeployKind) String() string {
	switch k {
	case DeployInProcess:
		return "inprocess"
	case DeployMultiproc:
		return "multiproc"
	default:
		return fmt.Sprintf("DeployKind(%d)", int(k))
	}
}

// ParseDeployKind resolves the -deploy flag values.
func ParseDeployKind(s string) (DeployKind, error) {
	switch s {
	case "", "inprocess":
		return DeployInProcess, nil
	case "multiproc":
		return DeployMultiproc, nil
	default:
		return 0, fmt.Errorf("engine: unknown deploy kind %q (want inprocess or multiproc)", s)
	}
}

// Config sizes the cluster.
type Config struct {
	// NumExecutors is the number of executors in the local cluster, each
	// with its own memory manager, cache and counters. Defaults to 1 (the
	// original single-executor engine).
	NumExecutors int
	// Parallelism bounds concurrently running tasks per executor (executor
	// cores). Defaults to 4.
	Parallelism int
	// NumPartitions is the default partition count for new datasets.
	// Defaults to Parallelism * NumExecutors.
	NumPartitions int
	// Mode selects the memory-management strategy.
	Mode Mode
	// PageSize is the Deca page size (0 = memory.DefaultPageSize).
	PageSize int
	// MemoryBudget models the cluster heap portion available to data
	// containers. It is split evenly across executors, and within each
	// executor between cache and shuffle by StorageFraction. 0 = unlimited.
	MemoryBudget int64
	// StorageFraction is the cache share of each executor's budget
	// (Spark's spark.storage.memoryFraction, the knob Table 4 sweeps).
	// Default 0.6.
	StorageFraction float64
	// SpillDir holds shuffle spills and cache swaps. Empty disables both
	// (evictions then drop blocks).
	SpillDir string
	// ShuffleSpillThreshold spills an individual shuffle buffer when its
	// estimated footprint exceeds this many bytes. 0 derives it from the
	// shuffle share of the owning executor's budget; negative disables
	// spilling.
	ShuffleSpillThreshold int64
	// TransportKind selects how shuffle map output crosses executors:
	// TransportInProcess (default) through the shared in-process registry,
	// TransportTCP over per-executor loopback sockets. Either way a fetch
	// serves a wire frame, never the registered buffer itself.
	TransportKind TransportKind

	// DeployKind selects the deployment: in-process executors or real
	// deca-executor OS processes. DeployMultiproc turns this Context into
	// the cluster's driver, spawning ExecutorCmd once per executor.
	DeployKind DeployKind
	// ExecutorCmd is the deca-executor argv prefix the multiproc driver
	// spawns (see ctl.DriverConfig.ExecutorCmd). Required for
	// DeployMultiproc.
	ExecutorCmd []string
	// CtlFollower, when set, marks this Context as one executor process's
	// mirror of the plan: stages execute only when the driver dispatches
	// their tasks, and action results are adopted from driver broadcasts.
	// Set by the deca-executor binary, never by applications.
	CtlFollower *ctl.Follower

	// MaxTaskRetries is the retry budget per task: a failed task attempt
	// is re-run (possibly on another executor) up to this many extra
	// times before the stage fails. 0 selects the default of 3 (Spark's
	// spark.task.maxFailures=4); negative disables retries.
	MaxTaskRetries int
	// MaxExecutorFailures blacklists an executor once this many task
	// attempts have failed on it: its partitions re-place onto the
	// healthy executors, and its cache blocks become misses recomputed
	// elsewhere. 0 disables blacklisting; the last healthy executor is
	// never blacklisted.
	MaxExecutorFailures int
	// SpeculationEnabled duplicates straggler map and reduce tasks at the
	// scheduler's fixed thresholds (sched.Config.Speculate). Reduce stages
	// qualify under stage commit: inputs stay pinned, so a duplicate
	// re-fetches them and the loser's merge is released. Action stages
	// never speculate: result slots are not idempotent. Default off.
	SpeculationEnabled bool
	// Chaos, when non-nil, injects deterministic faults into task attempts
	// (via the scheduler) and map-output fetches (via a transport
	// wrapper) — the fault-injection harness of internal/chaos.
	Chaos *chaos.Injector

	// EventBuffer sizes the per-process observability event ring
	// (internal/obs). 0 selects obs.DefaultCapacity; negative disables
	// event recording entirely — every instrumentation seam then costs a
	// single nil check.
	EventBuffer int
	// OpsAddr, when set, serves the live HTTP ops plane on this address
	// ("host:port"): /metrics (Prometheus text), /stages, /executors,
	// /memory (JSON) and /trace (Chrome trace-event JSON). Driver-side
	// only; executor processes never listen.
	OpsAddr string
	// TraceOut, when set, writes the retained event spine as Chrome
	// trace-event JSON to this file when the Context closes — loadable in
	// Perfetto / chrome://tracing. Driver-side only.
	TraceOut string
}

func (c Config) withDefaults() Config {
	if c.NumExecutors <= 0 {
		c.NumExecutors = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	if c.NumPartitions <= 0 {
		c.NumPartitions = c.Parallelism * c.NumExecutors
	}
	if c.StorageFraction <= 0 || c.StorageFraction > 1 {
		c.StorageFraction = 0.6
	}
	switch {
	case c.MaxTaskRetries == 0:
		c.MaxTaskRetries = 3
	case c.MaxTaskRetries < 0:
		c.MaxTaskRetries = 0
	}
	return c
}

// Context is the driver: configuration, the executor set, the shuffle
// transport and the placement-aware scheduler.
type Context struct {
	conf  Config
	execs []*Executor
	// plane is the data plane and trans the face the engine moves map
	// output through: the plane itself, or the chaos wrapper around it.
	plane   *transport.Plane
	trans   transport.Transport
	cluster *sched.Cluster
	nextID  atomic.Int64
	nextShf atomic.Int64

	// shuffleReg maps every shuffled dataset the program built to its
	// shuffle state, for good: ReleaseShuffle, ReleaseAllShuffles and the
	// control plane's NeedShuffle and recovery releases resolve through it.
	// The state itself knows whether it is live and which epoch it holds.
	shufMu     sync.Mutex
	shuffleReg map[int]materializable

	// Multiproc roles: at most one of driver/follower is set. follower is
	// the executor process's control connection, which also keeps the stage
	// bodies the mirrored program publishes. nextAction numbers action stages
	// in program order — identical on the driver and every mirror, so
	// descriptors agree.
	driver     *ctlDriver
	follower   *ctl.Follower
	nextAction atomic.Int64

	// Observability: the process-local event ring, the driver-side
	// cluster view, the periodic GC sampler, and the HTTP ops plane.
	// rec is nil when Config.EventBuffer is negative; view and ops are
	// nil on followers.
	rec        *obs.Recorder
	view       *obs.View
	gcSampler  *gcstats.Sampler
	ops        *opsServer
	obsDropped atomic.Uint64 // recorder drops already folded into view
	stageIDMu  sync.Mutex
	stageIDs   map[string]int32 // stage key → scheduler stage id

	closeOnce sync.Once

	// fetchWorkers and fetchBudget shape every reduce task's fetch pipeline
	// (New: the constants; tests assign other shapes before a shuffle).
	fetchWorkers int
	fetchBudget  int64

	// testAfterMapStage, when set, runs between a shuffle's map and reduce
	// stages (tests: injecting map-output loss to drive the reduce error
	// path).
	testAfterMapStage func(transport.ShuffleID)
	// testAfterReduceVerdict, when set, runs on the driver between a
	// shuffle's reduce verdict (followers are live from here) and the
	// return of its materialization (the driver is live only then) — the
	// window a recovery release must not fall into.
	testAfterReduceVerdict func(dataset, epoch int)
}

// New creates an execution context with NumExecutors executors. The
// memory budget is split evenly across executors, the division remainder
// spread over the first executors, so the per-executor limits always sum
// to the configured budget. Shares are floored at one byte — a zero
// share would mean "unlimited" to the managers — so the sum property
// holds whenever MemoryBudget ≥ NumExecutors (any realistic sizing).
func New(conf Config) *Context {
	conf = conf.withDefaults()
	c := &Context{
		conf:         conf,
		shuffleReg:   make(map[int]materializable),
		stageIDs:     make(map[string]int32),
		fetchWorkers: fetchConcurrency,
		fetchBudget:  maxFetchBytesInFlight,
	}
	var faults sched.FaultInjector
	if conf.Chaos != nil {
		faults = conf.Chaos
	}
	c.cluster = sched.NewCluster(sched.Config{
		NumExecutors:        conf.NumExecutors,
		SlotsPerExecutor:    conf.Parallelism,
		MaxTaskRetries:      conf.MaxTaskRetries,
		MaxExecutorFailures: conf.MaxExecutorFailures,
		Speculate:           conf.SpeculationEnabled,
		Hooks:               clusterHooks{c},
		Faults:              faults,
	})
	n := conf.NumExecutors
	perExec := conf.MemoryBudget / int64(n)
	rem := conf.MemoryBudget % int64(n)
	for i := 0; i < n; i++ {
		var budget, cacheBudget int64
		if conf.MemoryBudget > 0 {
			budget = perExec
			if int64(i) < rem {
				budget++
			}
			if budget == 0 {
				budget = 1
			}
			cacheBudget = int64(float64(budget) * conf.StorageFraction)
			if cacheBudget == 0 {
				cacheBudget = 1
			}
		}
		c.execs = append(c.execs, &Executor{
			id:    i,
			mem:   memory.NewManager(conf.PageSize, budget),
			cache: cache.NewManager(cacheBudget, conf.SpillDir),
		})
	}

	// Observability spine: one event ring per process, fed by every layer.
	// The driver (any non-follower role) also aggregates into a View; a
	// follower's ring drains into ctl heartbeats instead. The GC sampler
	// turns runtime GC stats into a periodic event stream.
	if conf.EventBuffer >= 0 {
		c.rec = obs.NewRecorder(conf.EventBuffer)
		for i, ex := range c.execs {
			ex.mem.SetRecorder(c.rec, int32(i))
		}
		if conf.CtlFollower == nil {
			c.view = obs.NewView(0)
		}
		rec, exec := c.rec, c.obsExec()
		c.gcSampler = gcstats.StartSampler(gcSampleInterval, func(s gcstats.Snapshot) {
			rec.Record(obs.Event{
				Kind: obs.KindGCSample,
				Exec: exec,
				A:    int64(s.GCCPUSeconds * 1e9),
				B:    int64(s.HeapAlloc),
			})
		})
	}

	// Role-specific control-plane wiring, and the construction of the data
	// plane that goes with it. A follower mirrors the plan inside one
	// deca-executor process; a multiproc driver spawns and supervises the
	// fleet; everything else hosts the whole cluster in this process.
	switch {
	case conf.CtlFollower != nil:
		c.plane = c.wireFollower(conf.CtlFollower)
	case conf.DeployKind == DeployMultiproc:
		c.plane = c.wireDriver()
	case conf.TransportKind == TransportTCP:
		var err error
		c.plane, err = transport.NewTCP(transport.LoopbackAddrs(conf.NumExecutors), fetchTimeout)
		if err != nil {
			// Listeners failing is an environment fault, not a recoverable
			// job condition; keep New's signature and fail loudly.
			panic(fmt.Sprintf("engine: starting TCP transport: %v", err))
		}
	default:
		c.plane = transport.NewInProcess()
	}
	c.plane.SetRecorder(c.rec)
	c.trans = c.plane
	// Followers wrap too: an executor-process injector (built from the
	// plan's chaos spec) makes fetch faults fire inside the real process.
	if conf.Chaos != nil {
		c.trans = chaos.WrapTransport(c.plane, conf.Chaos)
	}
	if conf.OpsAddr != "" && conf.CtlFollower == nil {
		c.ops = startOps(c, conf.OpsAddr)
	}
	return c
}

// fetchTimeout bounds each TCP FETCH round-trip with socket deadlines so a
// hung peer surfaces as a retryable error instead of a stuck stage. No
// caller ever needed another value; the in-process transport ignores it.
const fetchTimeout = 30 * time.Second

// gcSampleInterval paces the periodic GC-stat events. 200ms keeps the
// timeline readable while costing one ReadMemStats per tick.
const gcSampleInterval = 200 * time.Millisecond

// obsExec is the executor id this process's role-scoped events carry:
// a follower stamps its executor id, every driver role stamps -1.
func (c *Context) obsExec() int32 {
	if c.conf.CtlFollower != nil {
		return int32(c.conf.CtlFollower.ID())
	}
	return -1
}

// drainLocalEvents folds the process-local recorder backlog (and its
// overflow count) into the driver view. Ops handlers and the trace
// export call it so the view is current at read time; follower events
// arrive through heartbeats instead.
func (c *Context) drainLocalEvents() {
	if c.view == nil || c.rec == nil {
		return
	}
	for {
		evs := c.rec.Drain(obs.DefaultCapacity)
		if len(evs) == 0 {
			break
		}
		c.view.Ingest(evs)
	}
	d := c.rec.Dropped()
	if prev := c.obsDropped.Swap(d); d > prev {
		c.view.AddDropped(d - prev)
	}
}

// noteStageStart correlates a stage key with its scheduler id and emits
// the stage-begin event.
func (c *Context) noteStageStart(key string, stage int) {
	c.stageIDMu.Lock()
	c.stageIDs[key] = int32(stage)
	c.stageIDMu.Unlock()
	c.rec.Record(obs.Event{Kind: obs.KindStageBegin, Exec: c.obsExec(), Stage: int32(stage), Key: key})
}

// recordStageVerdict emits the stage-verdict event — ok for a nil err,
// abort otherwise — resolving the scheduler stage id recorded at stage
// start (0 when the stage never started locally — the view then matches by
// key).
func (c *Context) recordStageVerdict(key string, err error) {
	if c.rec == nil {
		return
	}
	c.stageIDMu.Lock()
	id := c.stageIDs[key]
	delete(c.stageIDs, key)
	c.stageIDMu.Unlock()
	code := int64(obs.VerdictOK)
	if err != nil {
		code = obs.VerdictAbort
	}
	c.rec.Record(obs.Event{Kind: obs.KindStageVerdict, Exec: c.obsExec(), Stage: id, Key: key, A: code})
}

// writeTraceOut exports the retained event spine as Chrome trace-event
// JSON to Config.TraceOut (Close-time, driver roles only).
func (c *Context) writeTraceOut() {
	c.drainLocalEvents()
	f, err := os.Create(c.conf.TraceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine: creating trace file: %v\n", err)
		return
	}
	if err := obs.WriteTrace(f, c.view.Events()); err != nil {
		fmt.Fprintf(os.Stderr, "engine: writing trace: %v\n", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "engine: closing trace file: %v\n", err)
	}
}

// materializable is the deployment-facing face of a shuffle state: the
// context materializes and releases shuffles by dataset id without knowing
// their record types.
type materializable interface {
	releasable // a state that is not live releases nothing
	Materialize() error
	// Epoch names the current materialization (0 before the first).
	Epoch() int
	// MaterializeEpoch / ReleaseEpoch are the epoch-guarded variants:
	// recovery release and re-materialize broadcasts arrive on independent
	// goroutines, so each operation re-checks the state's epoch under its
	// lock instead of trusting arrival order.
	MaterializeEpoch(epoch int) error
	ReleaseEpoch(epoch int) bool
}

// MaterializeShuffle materializes the dataset's shuffle by id — the
// control plane's entry point: the driver serves follower NeedShuffle
// requests with it, and followers run it when the driver announces a
// materialization they hold map tasks for. Concurrent calls for one
// dataset are deduplicated by the state's memoization.
func (c *Context) MaterializeShuffle(datasetID int) error {
	st := c.shuffleOf(datasetID)
	if st == nil {
		return fmt.Errorf("engine: dataset %d has no registered shuffle", datasetID)
	}
	return st.Materialize()
}

// shuffleOf resolves a dataset id in the shuffle registry (nil when the
// program has not built that shuffle).
func (c *Context) shuffleOf(datasetID int) materializable {
	c.shufMu.Lock()
	defer c.shufMu.Unlock()
	return c.shuffleReg[datasetID]
}

// ReleaseShuffle frees the materialized shuffle output backing the given
// shuffled dataset — the §4.2 lifetime end of a shuffle buffer, once its
// reading phase has completed. Iterative jobs call this between
// iterations, which is why PR/CC show milder GC pressure than LR (§6.3).
//
// In the multiproc deployment the driver's program order is the one that
// counts: the driver releases its copy and tells every executor to release
// the same epoch (releaseEverywhere), and a follower's own call does
// nothing. A mirror lags its driver, so a release in its program order
// could land after the driver re-materialized the dataset — freeing the
// live epoch on one executor while the driver, still live, memoises away
// that executor's request for it.
func (c *Context) ReleaseShuffle(datasetID int) {
	st := c.shuffleOf(datasetID)
	switch {
	case st == nil || c.follower != nil:
	case c.driver != nil:
		c.releaseEverywhere(datasetID, st.Epoch())
	default:
		st.Release()
	}
}

// ReleaseAllShuffles frees every live shuffle output.
func (c *Context) ReleaseAllShuffles() {
	c.shufMu.Lock()
	sts := slices.Collect(maps.Values(c.shuffleReg))
	c.shufMu.Unlock()
	for _, st := range sts {
		st.Release()
	}
}

// Close releases shuffles, every executor's cache blocks and memory
// manager, the transport's listeners and connection pools, and — on a
// multiproc driver — the executor fleet (Shutdown broadcast, then SIGKILL
// for stragglers). Idempotent: a second Close, including one racing a
// stage's error path, is a no-op. The context is unusable afterwards.
func (c *Context) Close() {
	c.closeOnce.Do(func() {
		if c.gcSampler != nil {
			c.gcSampler.Stop()
		}
		if c.ops != nil {
			c.ops.shutdown()
		}
		c.ReleaseAllShuffles()
		for _, ex := range c.execs {
			ex.cache.Clear()
			ex.mem.Close()
		}
		if c.driver != nil {
			c.driver.d.Close()
		}
		c.trans.Close()
		if c.conf.TraceOut != "" && c.view != nil {
			c.writeTraceOut()
		}
	})
}

// Conf returns the effective configuration.
func (c *Context) Conf() Config { return c.conf }

// Mode returns the execution mode.
func (c *Context) Mode() Mode { return c.conf.Mode }

// Executors returns the executor set.
func (c *Context) Executors() []*Executor { return c.execs }

// executorFor is the deterministic partition→executor affinity: partition
// p of every dataset lives on executor p mod NumExecutors, so a fused
// narrow chain reads its parent's cache blocks executor-locally. The
// scheduler's blacklist overrides the affinity: partitions whose home
// executor is blacklisted re-place deterministically onto the healthy
// executors (their cache blocks there are misses, recomputed in place),
// while partitions on healthy executors never move.
func (c *Context) executorFor(p int) *Executor {
	return c.execs[c.cluster.Place(p)]
}

// ExecutorFor exposes the partition→executor placement (tests, tools).
func (c *Context) ExecutorFor(p int) *Executor { return c.executorFor(p) }

// Transport returns the shuffle transport.
func (c *Context) Transport() transport.Transport { return c.trans }

// Memory returns executor 0's page memory manager — the cluster's only
// manager in single-executor configs. Multi-executor callers should range
// over Executors() or use MemoryInUse.
func (c *Context) Memory() *memory.Manager { return c.execs[0].mem }

// MemoryInUse sums live page bytes across every executor.
func (c *Context) MemoryInUse() int64 {
	var total int64
	for _, ex := range c.execs {
		total += ex.mem.InUse()
	}
	return total
}

// execCounters reads one executor's counter vector: the counters this
// process increments, the values the executor's block store (cache.Stats)
// and its transport node (transport.Stats) already keep — this function is
// the one place they are pulled into the vector — and, on a multiproc
// driver, whose executors' data lives in other processes, the
// executor-resident values the executor's last heartbeat carried
// (SyncClusterMetrics asks for fresh ones).
func (c *Context) execCounters(ex *Executor) obs.CounterValues {
	v := ex.counters.Load()
	cs, ts := ex.cache.Stats(), c.plane.ServeStats(ex.id)
	v[obs.CacheHits] = int64(cs.Hits)
	v[obs.CacheMisses] = int64(cs.Misses)
	v[obs.CacheEvictions] = int64(cs.Evictions)
	v[obs.CacheDrops] = int64(cs.Drops)
	v[obs.CacheSwapOutBytes] = cs.SwapOutBytes
	v[obs.CacheSwapInBytes] = cs.SwapInBytes
	v[obs.CacheMemBytes] = cs.MemBytes
	v[obs.CacheSwappedBytes] = cs.SwappedBytes
	v[obs.PagesServedZeroCopy] = ts.PagesServedZeroCopy
	v[obs.BytesSendfile] = ts.BytesSendfile
	v[obs.ServeUserspaceCopyBytes] = ts.UserspaceCopyBytes
	if c.driver != nil {
		v.Add(c.driver.d.Counters(ex.id))
	}
	return v
}

// ExecCounters reads every executor's counter vector, by executor id.
func (c *Context) ExecCounters() []obs.CounterValues {
	out := make([]obs.CounterValues, len(c.execs))
	for i, ex := range c.execs {
		out[i] = c.execCounters(ex)
	}
	return out
}

// Counters is the cluster's counter vector: the sum of the executors',
// taken on read.
func (c *Context) Counters() (sum obs.CounterValues) {
	for _, ex := range c.execs {
		sum.Add(c.execCounters(ex))
	}
	return sum
}

// noteOccupancy samples a shuffle buffer's page occupancy (used bytes vs
// footprint) into the event spine, where obs.View keeps the per-shuffle
// series. Buffers that do not expose PageOccupancy (object containers)
// contribute nothing.
func (c *Context) noteOccupancy(sh transport.ShuffleID, buf any) {
	po, ok := buf.(interface{ PageOccupancy() (int64, int64) })
	if !ok {
		return
	}
	used, footprint := po.PageOccupancy()
	if footprint == 0 {
		return
	}
	c.rec.Record(obs.Event{
		Kind: obs.KindOccupancy, Exec: c.obsExec(),
		Shuffle: int64(sh), A: used, B: footprint,
	})
}

// shuffleSpillThreshold resolves the per-buffer spill trigger. Each
// executor holds numBuffers/NumExecutors of the stage's buffers against
// its 1/NumExecutors share of the budget, so the global ratio is also the
// per-executor one.
func (c *Context) shuffleSpillThreshold(numBuffers int) int64 {
	if c.conf.ShuffleSpillThreshold != 0 {
		if c.conf.ShuffleSpillThreshold < 0 {
			return 0 // disabled
		}
		return c.conf.ShuffleSpillThreshold
	}
	if c.conf.MemoryBudget <= 0 || numBuffers <= 0 {
		return 0
	}
	shuffleShare := float64(c.conf.MemoryBudget) * (1 - c.conf.StorageFraction)
	return int64(shuffleShare) / int64(numBuffers)
}

// datasetID issues unique dataset ids (cache block namespace).
func (c *Context) datasetID() int { return int(c.nextID.Add(1)) }

// shuffleID issues unique transport shuffle ids.
func (c *Context) shuffleID() transport.ShuffleID {
	return transport.ShuffleID(c.nextShf.Add(1))
}

// clusterHooks mirrors scheduler events into the concerned executor's
// counters and the observability event spine. It
// implements sched.AttemptObserver alongside sched.Hooks, so attempt
// events carry full (stage, part, attempt) coordinates.
type clusterHooks struct{ c *Context }

func (h clusterHooks) TaskStarted(exec int) {
	h.c.execs[exec].counters[obs.TasksRun].Add(1)
}

func (h clusterHooks) TaskFailed(exec int) {
	h.c.execs[exec].counters[obs.TasksFailed].Add(1)
}

func (h clusterHooks) TaskRetried(exec int) {
	h.c.execs[exec].counters[obs.TaskRetries].Add(1)
	h.c.rec.Record(obs.Event{Kind: obs.KindTaskRetry, Exec: int32(exec), Stage: -1})
}

func (h clusterHooks) SpeculativeLaunched(exec int) {
	h.c.execs[exec].counters[obs.SpeculativeLaunched].Add(1)
	h.c.rec.Record(obs.Event{Kind: obs.KindTaskSpeculate, Exec: int32(exec)})
}

func (h clusterHooks) SpeculativeWon(exec int) {
	h.c.execs[exec].counters[obs.SpeculativeWon].Add(1)
	h.c.rec.Record(obs.Event{Kind: obs.KindSpeculativeWon, Exec: int32(exec)})
}

func (h clusterHooks) ExecutorBlacklisted(exec int) {
	h.c.execs[exec].counters[obs.ExecutorsBlacklisted].Add(1)
	h.c.rec.Record(obs.Event{Kind: obs.KindExecutorBlacklisted, Exec: int32(exec)})
}

// AttemptStarted / AttemptFinished implement sched.AttemptObserver: the
// scheduler's per-attempt lifecycle becomes the task lanes of the event
// spine. Error strings are truncated so one failing stage cannot bloat
// the ring.
func (h clusterHooks) AttemptStarted(stage, part, attempt, exec int, speculative bool) {
	var spec int64
	if speculative {
		spec = 1
	}
	h.c.rec.Record(obs.Event{
		Kind: obs.KindTaskStart, Exec: int32(exec),
		Stage: int32(stage), Part: int32(part), Attempt: int32(attempt), B: spec,
	})
}

func (h clusterHooks) AttemptFinished(stage, part, attempt, exec int, speculative bool, d time.Duration, err error) {
	var failed int64
	var msg string
	if err != nil {
		failed = 1
		msg = err.Error()
		if len(msg) > maxEventErrLen {
			msg = msg[:maxEventErrLen]
		}
	}
	h.c.rec.Record(obs.Event{
		Kind: obs.KindTaskFinish, Exec: int32(exec),
		Stage: int32(stage), Part: int32(part), Attempt: int32(attempt),
		A: int64(d), B: failed, Key: msg,
	})
}

// maxEventErrLen bounds error strings carried in events.
const maxEventErrLen = 256

// Scheduler exposes the cluster scheduler state (blacklist, placement)
// for tests and tools.
func (c *Context) Scheduler() *sched.Cluster { return c.cluster }

// noteFetch records a map-output fetch's locality on the destination
// executor.
func (c *Context) noteFetch(dst *Executor, p transport.Payload) {
	if p.SrcExecutor == dst.id {
		dst.counters[obs.LocalShuffleFetches].Add(1)
		return
	}
	dst.counters[obs.RemoteShuffleFetches].Add(1)
	dst.counters[obs.RemoteShuffleBytes].Add(p.Bytes)
}

// noteSpill attributes spilled bytes to the executor that produced the
// buffer.
func (c *Context) noteSpill(srcExec int, bytes int64) {
	if bytes == 0 {
		return
	}
	c.execs[srcExec].counters[obs.ShuffleSpillBytes].Add(bytes)
	c.rec.Record(obs.Event{Kind: obs.KindPageSpill, Exec: int32(srcExec), B: bytes})
}

// dropShuffleOutputs removes any still-registered map outputs of the
// shuffle from the transport and releases their buffers — the error-path
// cleanup for a stage that failed between map and reduce.
func (c *Context) dropShuffleOutputs(id transport.ShuffleID) {
	c.rec.Record(obs.Event{Kind: obs.KindStageAbort, Exec: c.obsExec(), Shuffle: int64(id)})
	releasePayloads(c.trans.Drop(id)...)
}

// commitShuffleOutputs is the stage commit: the reduce stage consuming
// shuffle id settled, so every registered map output's lifetime ends and
// its pinned buffers are released. Ids the transport no longer holds
// (displaced, dropped, or held by another process) are skipped by the
// transport itself.
func (c *Context) commitShuffleOutputs(id transport.ShuffleID, M, R int) {
	c.rec.Record(obs.Event{
		Kind: obs.KindStageCommit, Exec: c.obsExec(),
		Shuffle: int64(id), A: int64(M), B: int64(R),
	})
	ids := make([]transport.MapOutputID, 0, M*R)
	for m := 0; m < M; m++ {
		for r := 0; r < R; r++ {
			ids = append(ids, transport.MapOutputID{Shuffle: id, MapTask: m, Reduce: r})
		}
	}
	releasePayloads(c.trans.Commit(ids)...)
}

// Seq is a pull iterator over a partition's records: it calls yield for
// each record until exhaustion or until yield returns false.
type Seq[T any] func(yield func(T) bool)
