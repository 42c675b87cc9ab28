package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event export: the whole event spine rendered as a JSON
// array chrome://tracing and Perfetto load directly. Executors map to
// trace processes (pid = exec id + 1; pid 0 would collide with the
// tools' "idle" conventions, and the driver's pseudo-exec -1 maps to
// pid 1000). Task attempts become complete ("X") slices on tid = part,
// stage spans live on a dedicated driver-lane process, retries /
// blacklists / fetch failures are instants ("i"), and GC
// plus shuffle occupancy samples are counter ("C") series.

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

const (
	driverPID    = 1000 // events tagged exec -1: the driver process
	stageLanePID = 1001 // synthetic lane for stage spans
)

func tracePID(exec int32) int64 {
	if exec < 0 {
		return driverPID
	}
	return int64(exec) + 1
}

// WriteTrace renders events as a Chrome trace-event JSON array. Events
// should be in ingest order (View.Events); timestamps are shifted so
// the earliest event is t=0.
func WriteTrace(w io.Writer, events []Event) error {
	var t0 int64
	for _, e := range events {
		if e.Nanos != 0 && (t0 == 0 || e.Nanos < t0) {
			t0 = e.Nanos
		}
	}
	us := func(nanos int64) float64 { return float64(nanos-t0) / 1e3 }

	out := make([]traceEvent, 0, len(events)+16)
	pids := map[int64]string{}
	notePID := func(pid int64, name string) {
		if _, ok := pids[pid]; !ok {
			pids[pid] = name
		}
	}

	type openAttempt struct {
		startNanos int64
		exec       int32
	}
	type attemptID struct {
		stage, part, attempt int32
	}
	openAttempts := map[attemptID]openAttempt{}
	type openStage struct {
		beginNanos int64
		key        string
	}
	openStages := map[int32]openStage{}
	stageByKey := map[string]int32{}

	for _, e := range events {
		switch e.Kind {
		case KindTaskStart:
			openAttempts[attemptID{e.Stage, e.Part, e.Attempt}] = openAttempt{
				startNanos: e.Nanos, exec: e.Exec,
			}
		case KindTaskFinish:
			id := attemptID{e.Stage, e.Part, e.Attempt}
			start := e.Nanos - e.A // duration rides in A
			if o, ok := openAttempts[id]; ok {
				start = o.startNanos
				delete(openAttempts, id)
			}
			pid := tracePID(e.Exec)
			notePID(pid, fmt.Sprintf("executor %d", e.Exec))
			name := fmt.Sprintf("stage %d part %d a%d", e.Stage, e.Part, e.Attempt)
			args := map[string]any{"stage": e.Stage, "part": e.Part, "attempt": e.Attempt}
			cat := "task"
			if e.B != 0 {
				cat = "task,failed"
				if e.Key != "" {
					args["error"] = e.Key
				}
			}
			out = append(out, traceEvent{
				Name: name, Cat: cat, Ph: "X",
				TS: us(start), Dur: float64(e.A) / 1e3,
				PID: pid, TID: int64(e.Part), Args: args,
			})
		case KindStageBegin:
			openStages[e.Stage] = openStage{beginNanos: e.Nanos, key: e.Key}
			if e.Key != "" {
				stageByKey[e.Key] = e.Stage
			}
		case KindStageVerdict:
			id := e.Stage
			if e.Key != "" {
				if mapped, ok := stageByKey[e.Key]; ok {
					id = mapped
				}
			}
			o, ok := openStages[id]
			if !ok {
				break
			}
			delete(openStages, id)
			name := o.key
			if name == "" {
				name = fmt.Sprintf("stage %d", id)
			}
			notePID(stageLanePID, "stages")
			out = append(out, traceEvent{
				Name: name, Cat: "stage", Ph: "X",
				TS: us(o.beginNanos), Dur: float64(e.Nanos-o.beginNanos) / 1e3,
				PID: stageLanePID, TID: int64(id),
				Args: map[string]any{"verdict": verdictName(true, e.A)},
			})
		case KindTaskRetry, KindExecutorBlacklisted, KindFetchFailed, KindStageAbort, KindStageCommit:
			pid := tracePID(e.Exec)
			notePID(pid, fmt.Sprintf("executor %d", e.Exec))
			args := map[string]any{}
			if e.Stage != 0 || e.Part != 0 {
				args["stage"], args["part"] = e.Stage, e.Part
			}
			if e.Shuffle != 0 {
				args["shuffle"] = e.Shuffle
			}
			if e.Key != "" {
				args["detail"] = e.Key
			}
			scope := "p"
			if e.Kind == KindExecutorBlacklisted {
				scope = "g"
			}
			out = append(out, traceEvent{
				Name: e.Kind.String(), Cat: "event", Ph: "i",
				TS: us(e.Nanos), PID: pid, TID: int64(e.Part),
				S: scope, Args: args,
			})
		case KindGCSample:
			pid := tracePID(e.Exec)
			notePID(pid, fmt.Sprintf("executor %d", e.Exec))
			out = append(out, traceEvent{
				Name: "gc", Cat: "sample", Ph: "C",
				TS: us(e.Nanos), PID: pid, TID: 0,
				Args: map[string]any{
					"gc_cpu_ms":     float64(e.A) / 1e6,
					"heap_live_mib": float64(e.B) / (1 << 20),
				},
			})
		case KindOccupancy:
			pid := tracePID(e.Exec)
			notePID(pid, fmt.Sprintf("executor %d", e.Exec))
			out = append(out, traceEvent{
				Name: fmt.Sprintf("occupancy shuffle %d", e.Shuffle),
				Cat:  "sample", Ph: "C",
				TS: us(e.Nanos), PID: pid, TID: 0,
				Args: map[string]any{
					"used_mib":      float64(e.A) / (1 << 20),
					"footprint_mib": float64(e.B) / (1 << 20),
				},
			})
		}
	}
	// Attempts still open at export time render as zero-duration marks so
	// a mid-run snapshot stays loadable.
	for id, o := range openAttempts {
		pid := tracePID(o.exec)
		notePID(pid, fmt.Sprintf("executor %d", o.exec))
		out = append(out, traceEvent{
			Name: fmt.Sprintf("stage %d part %d a%d (running)", id.stage, id.part, id.attempt),
			Cat:  "task", Ph: "i", TS: us(o.startNanos),
			PID: pid, TID: int64(id.part), S: "t",
		})
	}

	// Name the processes so Perfetto's track labels read as executors.
	meta := make([]traceEvent, 0, len(pids))
	for pid, name := range pids {
		if pid == driverPID {
			name = "driver"
		}
		meta = append(meta, traceEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}
	sort.Slice(meta, func(i, j int) bool { return meta[i].PID < meta[j].PID })
	all := append(meta, out...)

	enc := json.NewEncoder(w)
	return enc.Encode(all)
}
