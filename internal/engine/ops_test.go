package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"deca/internal/obs"
)

// opsGet fetches one ops endpoint and returns the body.
func opsGet(t *testing.T, addr, path string) []byte {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return body
}

func TestOpsEndpointsServeLiveState(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	ctx := New(Config{
		NumExecutors: 2,
		Parallelism:  2,
		Mode:         ModeDeca,
		PageSize:     4096,
		SpillDir:     t.TempDir(),
		OpsAddr:      "127.0.0.1:0",
		TraceOut:     traceOut,
	})
	addr := ctx.OpsAddr()
	if addr == "" {
		t.Fatal("ops plane did not start")
	}
	wordCountOn(t, ctx)

	metrics := string(opsGet(t, addr, "/metrics"))
	for _, want := range []string{
		"deca_tasks_run_total ",
		`deca_exec_tasks_run_total{exec="0"}`,
		`deca_exec_tasks_run_total{exec="1"}`,
		"deca_shuffle_records_total ",
		"deca_fetch_in_flight_bytes ",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "# TYPE deca_tasks_run_total counter") {
		t.Error("/metrics missing TYPE metadata")
	}

	var stages struct {
		Stages []struct {
			Key      string `json:"key"`
			Verdict  string `json:"verdict"`
			Started  int64  `json:"attempts_started"`
			Finished int64  `json:"attempts_finished"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(opsGet(t, addr, "/stages"), &stages); err != nil {
		t.Fatalf("/stages: %v", err)
	}
	var sawShuffle bool
	for _, s := range stages.Stages {
		if strings.HasPrefix(s.Key, "x/") && s.Verdict == "ok" && s.Finished > 0 {
			sawShuffle = true
		}
	}
	if !sawShuffle {
		t.Errorf("/stages has no committed shuffle stage: %+v", stages.Stages)
	}

	var execs struct {
		Executors []struct {
			Exec int `json:"exec"`
		} `json:"executors"`
	}
	if err := json.Unmarshal(opsGet(t, addr, "/executors"), &execs); err != nil {
		t.Fatalf("/executors: %v", err)
	}
	if len(execs.Executors) != 2 {
		t.Errorf("/executors rows = %d, want 2", len(execs.Executors))
	}

	var mem struct {
		Executors []struct {
			Exec       int   `json:"exec"`
			PagesAlloc int64 `json:"pages_allocated"`
		} `json:"executors"`
	}
	if err := json.Unmarshal(opsGet(t, addr, "/memory"), &mem); err != nil {
		t.Fatalf("/memory: %v", err)
	}
	var pages int64
	for _, row := range mem.Executors {
		pages += row.PagesAlloc
	}
	if pages == 0 {
		t.Error("/memory shows no page allocations after a Deca shuffle")
	}

	var trace []map[string]any
	if err := json.Unmarshal(opsGet(t, addr, "/trace"), &trace); err != nil {
		t.Fatalf("/trace: %v", err)
	}
	if len(trace) == 0 {
		t.Error("/trace is empty after a job ran")
	}

	ctx.Close()
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("TraceOut not written: %v", err)
	}
	trace = nil
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("TraceOut is not trace-event JSON: %v", err)
	}
	var sawTask bool
	for _, ev := range trace {
		if ev["ph"] == "X" {
			sawTask = true
		}
	}
	if !sawTask {
		t.Error("TraceOut has no complete task slices")
	}
	// The ops listener must be gone after Close.
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("ops endpoint still serving after Close")
	}
}

func TestObservabilityDisabledByNegativeEventBuffer(t *testing.T) {
	ctx := New(Config{
		NumExecutors: 2,
		Parallelism:  2,
		Mode:         ModeDeca,
		PageSize:     4096,
		EventBuffer:  -1,
		OpsAddr:      "127.0.0.1:0",
	})
	t.Cleanup(ctx.Close)
	if ctx.rec != nil {
		t.Fatal("recorder allocated despite EventBuffer < 0")
	}
	wordCountOn(t, ctx) // instrumented seams must tolerate the nil recorder
	body := string(opsGet(t, ctx.OpsAddr(), "/metrics"))
	if !strings.Contains(body, "deca_tasks_run_total") {
		t.Error("/metrics should still serve counters with events disabled")
	}
}

// TestCloseStopsObservability is the leak test: contexts that started GC
// samplers and ops listeners must not leave goroutines behind after
// Close. Run with -race in CI.
func TestCloseStopsObservability(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx := New(Config{
			NumExecutors: 2,
			Parallelism:  2,
			Mode:         ModeDeca,
			PageSize:     4096,
			OpsAddr:      "127.0.0.1:0",
		})
		wordCountOn(t, ctx)
		ctx.Close()
		ctx.Close() // idempotent with observability attached
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 || time.Now().After(deadline) {
			if n > before+1 {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scrapeMetrics parses a /metrics body: series name → exec label ("" for a
// cluster series) → value, and the `# TYPE name type` lines as served.
func scrapeMetrics(t *testing.T, body string) (vals map[string]map[string]int64, types map[string]bool) {
	t.Helper()
	vals, types = make(map[string]map[string]int64), make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types[line] = true
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		name, label, _ := strings.Cut(series, "{")
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		if vals[name] == nil {
			vals[name] = make(map[string]int64)
		}
		vals[name][label] = v
	}
	return vals, types
}

// TestMetricsTable holds the counter table to its contract, against a live
// /metrics scrape after a 2-executor TCP WordCount.
func TestMetricsTable(t *testing.T) {
	ctx := New(Config{
		NumExecutors: 2, Parallelism: 2, Mode: ModeDeca, PageSize: 4096,
		SpillDir: t.TempDir(), TransportKind: TransportTCP, OpsAddr: "127.0.0.1:0",
	})
	t.Cleanup(ctx.Close)
	wordCountOn(t, ctx)
	vals, types := scrapeMetrics(t, string(opsGet(t, ctx.OpsAddr(), "/metrics")))

	// Every Counter has a table row, a unique name and a scope; fromTable
	// collects what the table may put on /metrics.
	fromTable, names := make(map[string]bool), make(map[string]obs.Counter)
	for k := obs.Counter(0); k < obs.NumCounters; k++ {
		row := k.Row()
		if row.Name == "" || (row.Scope != obs.ScopeExecutor && row.Scope != obs.ScopeDriver) {
			t.Errorf("counter %d has no complete table row: %+v", k, row)
		}
		if prev, dup := names[row.Name]; dup {
			t.Errorf("counters %d and %d share the name %q", prev, k, row.Name)
		}
		names[row.Name] = k
		for _, prefix := range []string{"deca_", "deca_exec_"} {
			name, typ := k.Series(prefix)
			fromTable[name], fromTable[fmt.Sprintf("# TYPE %s %s", name, typ)] = true, true
		}
	}

	// The series names and TYPE lines served before the table existed are
	// all still served; anything new is a counter the table carries (the
	// cache counters heartbeats shipped but /metrics never exported).
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics_series.golden"))
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[string]bool)
	for name := range vals {
		served[name] = true
	}
	for line := range types {
		served[line] = true
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if !served[line] {
			t.Errorf("/metrics no longer serves %q", line)
		}
		delete(served, line)
	}
	for line := range served {
		if !fromTable[line] {
			t.Errorf("/metrics serves %q, which is neither in the golden file nor derived from the counter table", line)
		}
	}

	// The cluster series is the sum of the executors', for every counter,
	// and is what Context.Counters reports.
	cluster := ctx.Counters()
	for k := obs.Counter(0); k < obs.NumCounters; k++ {
		execName, _ := k.Series("deca_exec_")
		name, _ := k.Series("deca_")
		var sum int64
		for _, v := range vals[execName] {
			sum += v
		}
		if len(vals[execName]) != 2 || sum != vals[name][""] || sum != cluster[k] {
			t.Errorf("%s: executors %v sum to %d, cluster series says %d, Counters() says %d",
				name, vals[execName], sum, vals[name][""], cluster[k])
		}
	}
	for _, k := range []obs.Counter{obs.ShuffleRecords, obs.RemoteShuffleBytes, obs.PagesServedZeroCopy, obs.TasksRun} {
		if cluster[k] == 0 {
			t.Errorf("%s is zero after a shuffling job", k.Row().Name)
		}
	}
}
