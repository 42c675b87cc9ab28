package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded from the harness around a call
// into a layer. Spans of one run share the workload id; every span but
// the root names the span that caused it.
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	// Cat is "run" (root), "job" (a whole workload job), "replay" (a layer
	// call replaying the job's path) or "probe" (an isolated micro-probe).
	Cat        string
	Start, End time.Duration // since the tracer started
	Counts     map[string]float64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Replays are
// single-threaded, but the serving side of a TCP fetch records its encode
// span from the server goroutine, hence the lock.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workloadID string) *tracer {
	return &tracer{t0: time.Now(), workload: workloadID}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name, cat string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cat: cat, Start: time.Since(t.t0)})
	return len(t.spans)
}

// end closes the span, attaching optional counts, and returns its length.
func (t *tracer) end(id int, counts map[string]float64) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Counts = now, counts
	return s.dur()
}

// do runs fn inside a span.
func (t *tracer) do(parent int, name, cat string, fn func(id int) error) error {
	id := t.begin(parent, name, cat)
	err := fn(id)
	t.end(id, nil)
	return err
}

// add records an interval measured elsewhere (a job timed by runJob).
func (t *tracer) add(parent int, name, cat string, start, end time.Time, counts map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cat: cat,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Counts: counts})
	return len(t.spans)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfSeconds sums, over the spans called name, each span's duration
// minus the part its direct children cover: the layer's own time.
func selfSeconds(spans []span, name string) float64 {
	var total time.Duration
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		total += s.dur()
		for _, c := range spans {
			if c.Parent == s.ID {
				total -= c.dur()
			}
		}
	}
	return total.Seconds()
}

func findSpan(spans []span, name string) (span, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// Span names the accounting below depends on.
const (
	spanTracedJob = "job.deca.traced"
	spanReplay    = "replay"
)

// unexplainedShare is engine.unexplained_share: the share of the traced
// job's worker-seconds that the single-threaded replay of its layer calls
// does not account for — scheduling, synchronisation, idle workers, GC
// assist differences; what only in-program spans can split further.
func unexplainedShare(spans []span) (float64, error) {
	job, ok := findSpan(spans, spanTracedJob)
	if !ok {
		return 0, fmt.Errorf("trace has no %s span", spanTracedJob)
	}
	root, ok := findSpan(spans, spanReplay)
	if !ok {
		return 0, fmt.Errorf("trace has no %s span", spanReplay)
	}
	var busy time.Duration
	for _, s := range spans {
		if s.Parent == root.ID {
			busy += s.dur()
		}
	}
	return 1 - busy.Seconds()/(job.dur().Seconds()*workers), nil
}

// traceEvent is the Chrome trace-event dialect obs.WriteTrace emits:
// complete ("X") slices with microsecond timestamps, plus process-name
// metadata, as one JSON array that Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace lanes: the viewers nest slices of one tid by containment, so
// jobs, replay and probes each get a lane, and the TCP server's encode
// spans — concurrent with the fetch that caused them — get their own.
var traceLanes = map[string]int64{"run": 0, "job": 1, "replay": 2, "probe": 3}

const encodeLane = 4

func (t *tracer) write(w io.Writer) error {
	spans := t.snapshot()
	events := []traceEvent{{Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "deca bench/e2e " + t.workload}}}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for _, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "workload": t.workload}
		for k, v := range s.Counts {
			args[k] = v
		}
		tid := traceLanes[s.Cat]
		if s.Name == "shuffle.encode" {
			tid = encodeLane
		}
		events = append(events, traceEvent{Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: us(s.Start), Dur: us(s.dur()), PID: 1, TID: tid, Args: args})
	}
	return json.NewEncoder(w).Encode(events)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace loads a trace file back into spans (ids, parents, names and
// times; counts are dropped) and returns the workload ids it saw.
func readTrace(r io.Reader) ([]span, map[string]bool, error) {
	var events []traceEvent
	if err := json.NewDecoder(r).Decode(&events); err != nil {
		return nil, nil, err
	}
	var spans []span
	ids := map[string]bool{}
	us := func(v float64) time.Duration { return time.Duration(v * 1e3) }
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		id, _ := e.Args["id"].(float64)
		parent, _ := e.Args["parent"].(float64)
		wl, _ := e.Args["workload"].(string)
		ids[wl] = true
		spans = append(spans, span{ID: int(id), Parent: int(parent), Name: e.Name, Cat: e.Cat,
			Start: us(e.TS), End: us(e.TS) + us(e.Dur)})
	}
	return spans, ids, nil
}
