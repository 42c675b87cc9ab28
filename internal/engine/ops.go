package engine

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"

	"deca/internal/obs"
	"deca/internal/sched"
)

// opsServer is the driver's live HTTP ops plane: a handful of read-only
// endpoints over the metrics counters, the scheduler state and the
// observability view, served on Config.OpsAddr for the lifetime of the
// Context. Endpoints:
//
//	/metrics   Prometheus text: every row of the counter table, per executor
//	           and cluster-summed, plus the latest GC samples
//	/stages    JSON: live stage summaries with in-flight attempt states
//	/executors JSON: per-executor scheduler state (attempt failures, blacklist),
//	           liveness, in-flight fetch bytes, last event and GC sample
//	/memory    JSON: per-executor page-manager and spill rows of the counter
//	           table, plus the per-shuffle occupancy time series
//	/trace     Chrome trace-event JSON of the retained event spine
//	           (loadable in Perfetto / chrome://tracing)
type opsServer struct {
	c    *Context
	srv  *http.Server
	ln   net.Listener
	done chan struct{}
}

// startOps binds the ops listener and serves in the background. A bind
// failure is reported and tolerated — observability must never take the
// job down.
func startOps(c *Context, addr string) *opsServer {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine: ops listener %s: %v (ops plane disabled)\n", addr, err)
		return nil
	}
	o := &opsServer{c: c, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/stages", o.handleStages)
	mux.HandleFunc("/executors", o.handleExecutors)
	mux.HandleFunc("/memory", o.handleMemory)
	mux.HandleFunc("/trace", o.handleTrace)
	o.srv = &http.Server{Handler: mux}
	go func() {
		defer close(o.done)
		if err := o.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "engine: ops server: %v\n", err)
		}
	}()
	return o
}

func (o *opsServer) shutdown() {
	o.srv.Close()
	<-o.done
}

// handleMetrics is two loops over the counter table: every counter per
// executor, then its cluster sum. On a multiproc driver the
// executor-resident values are the last heartbeat's, so a scrape is live
// without a control-plane round trip.
func (o *opsServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	c := o.c
	c.drainLocalEvents()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	execs := c.ExecCounters()
	var cluster obs.CounterValues
	for k := obs.Counter(0); k < obs.NumCounters; k++ {
		name, typ := k.Series("deca_exec_")
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for i, v := range execs {
			fmt.Fprintf(&b, "%s{exec=\"%d\"} %d\n", name, i, v[k])
			cluster[k] += v[k]
		}
	}
	for k := obs.Counter(0); k < obs.NumCounters; k++ {
		name, typ := k.Series("deca_")
		fmt.Fprintf(&b, "# TYPE %s %s\n%s %d\n", name, typ, name, cluster[k])
	}

	// The latest GC samples and event accounting, from the view.
	for _, x := range c.view.Executors() {
		fmt.Fprintf(&b, "deca_exec_gc_cpu_nanos{exec=\"%d\"} %d\n", x.Exec, x.GCCPUNanos)
		fmt.Fprintf(&b, "deca_exec_heap_live_bytes{exec=\"%d\"} %d\n", x.Exec, x.HeapLiveBytes)
	}
	fmt.Fprintf(&b, "deca_obs_events_dropped_total %d\n", c.view.Dropped())

	w.Write([]byte(b.String()))
}

func (o *opsServer) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The connection died mid-write; nothing sensible to do.
		_ = err
	}
}

func (o *opsServer) handleStages(w http.ResponseWriter, _ *http.Request) {
	o.c.drainLocalEvents()
	o.writeJSON(w, struct {
		Stages []obs.StageSummary `json:"stages"`
	}{Stages: o.c.view.Stages()})
}

// opsExecutor is one /executors row: scheduler placement state fused
// with liveness (multiproc) and the executor's slice of the event view.
type opsExecutor struct {
	sched.ExecutorState
	Alive              *bool        `json:"alive,omitempty"`
	LastBeatNanos      int64        `json:"last_beat_nanos,omitempty"`
	FetchInFlightBytes int64        `json:"fetch_in_flight_bytes"`
	Obs                *obs.ExecObs `json:"obs,omitempty"`
}

func (o *opsServer) handleExecutors(w http.ResponseWriter, _ *http.Request) {
	c := o.c
	c.drainLocalEvents()
	obsByExec := make(map[int32]obs.ExecObs)
	for _, x := range c.view.Executors() {
		obsByExec[x.Exec] = x
	}
	counters := c.ExecCounters()
	out := make([]opsExecutor, 0, len(c.execs))
	for _, st := range c.cluster.States() {
		row := opsExecutor{ExecutorState: st}
		if st.Exec >= 0 && st.Exec < len(counters) {
			row.FetchInFlightBytes = counters[st.Exec][obs.FetchInFlightBytes]
		}
		if x, ok := obsByExec[int32(st.Exec)]; ok {
			xc := x
			row.Obs = &xc
		}
		out = append(out, row)
	}
	if c.driver != nil {
		for _, st := range c.driver.d.Statuses() {
			if st.Exec < 0 || st.Exec >= len(out) {
				continue
			}
			alive := st.Alive
			out[st.Exec].Alive = &alive
			out[st.Exec].LastBeatNanos = st.LastBeat.UnixNano()
		}
	}
	o.writeJSON(w, struct {
		Executors []opsExecutor `json:"executors"`
	}{Executors: out})
}

// memoryCounters are the rows a /memory row serves, keyed by their table
// names: the page manager's account, the process's reserve and free lists, spills.
var memoryCounters = []obs.Counter{
	obs.PagesAllocated, obs.PagesReused, obs.PagesReleased, obs.PagesAdopted, obs.PageBytesInUse,
	obs.PageGroupsLive, obs.ReserveBytes, obs.FreeListBytes, obs.FreeListFresh, obs.ShuffleSpillBytes,
}

// handleMemory serves one row per executor from its counter vector, which
// on a multiproc driver is the executor's last heartbeat.
func (o *opsServer) handleMemory(w http.ResponseWriter, _ *http.Request) {
	c := o.c
	c.drainLocalEvents()
	execs := c.ExecCounters()
	rows := make([]map[string]int64, len(execs))
	for i, v := range execs {
		rows[i] = map[string]int64{"exec": int64(i)}
		for _, k := range memoryCounters {
			rows[i][k.Row().Name] = v[k]
		}
	}
	o.writeJSON(w, struct {
		Executors []map[string]int64             `json:"executors"`
		Occupancy map[int64][]obs.OccupancyPoint `json:"occupancy,omitempty"`
	}{Executors: rows, Occupancy: c.view.Occupancy()})
}

func (o *opsServer) handleTrace(w http.ResponseWriter, _ *http.Request) {
	o.c.drainLocalEvents()
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteTrace(w, o.c.view.Events()); err != nil {
		_ = err // connection died mid-write
	}
}
