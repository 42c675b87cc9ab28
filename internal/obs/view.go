package obs

import (
	"sort"
	"sync"
)

// View is the driver-side aggregate of the cluster's event streams: the
// driver ingests its own recorder plus every follower's heartbeat
// drains, and the ops endpoints read the result. It keeps a bounded
// ring of raw events (the /trace export) alongside small running
// aggregates (the /stages, /executors and /memory views), so a
// long-running job's ops plane stays O(capacity) no matter how many
// events flow through.
type View struct {
	mu       sync.Mutex
	buf      []Event // append-grown up to capacity, a ring from there
	capacity int
	start    int // the oldest event, once the ring has wrapped
	ingested uint64
	dropped  uint64 // overwritten here, plus drops reported by recorders

	stages map[int32]*stageAgg
	execs  map[int32]*ExecObs
	occ    map[int64][]OccupancyPoint
	occCap int
}

// attemptKey identifies one running attempt within a stage.
type attemptKey struct {
	part, attempt int32
}

type stageAgg struct {
	key        string
	begin      int64
	end        int64
	verdict    int64
	verdictSet bool
	started    int64
	finished   int64
	failed     int64
	retried    int64
	running    map[attemptKey]runningAttempt
}

type runningAttempt struct {
	exec        int32
	startNanos  int64
	speculative bool
}

// OccupancyPoint is one sample of a shuffle buffer's live bytes vs its
// page footprint — the paper's container-lifetime signal as a series.
type OccupancyPoint struct {
	Nanos     int64 `json:"nanos"`
	Exec      int32 `json:"exec"`
	Used      int64 `json:"used_bytes"`
	Footprint int64 `json:"footprint_bytes"`
}

const defaultViewCapacity = 1 << 16

// NewView returns a view retaining at most capacity raw events
// (default 65536 if capacity <= 0) and a bounded occupancy series per
// shuffle.
func NewView(capacity int) *View {
	if capacity <= 0 {
		capacity = defaultViewCapacity
	}
	return &View{
		capacity: capacity,
		stages:   make(map[int32]*stageAgg),
		execs:    make(map[int32]*ExecObs),
		occ:      make(map[int64][]OccupancyPoint),
		occCap:   1024,
	}
}

// Ingest folds a batch of events into the view.
func (v *View) Ingest(evs []Event) {
	if v == nil || len(evs) == 0 {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range evs {
		v.ingested++
		if len(v.buf) < v.capacity {
			v.buf = append(v.buf, e)
		} else {
			v.buf[v.start] = e
			v.start = (v.start + 1) % len(v.buf)
			v.dropped++
		}
		v.aggregate(e)
	}
}

// AddDropped accounts ring overwrites that happened upstream (in a
// recorder, before shipping).
func (v *View) AddDropped(n uint64) {
	if v == nil || n == 0 {
		return
	}
	v.mu.Lock()
	v.dropped += n
	v.mu.Unlock()
}

func (v *View) aggregate(e Event) {
	switch e.Kind {
	case KindTaskStart:
		s := v.stage(e.Stage)
		s.started++
		s.running[attemptKey{e.Part, e.Attempt}] = runningAttempt{
			exec: e.Exec, startNanos: e.Nanos, speculative: e.B != 0,
		}
	case KindTaskFinish:
		s := v.stage(e.Stage)
		s.finished++
		if e.B != 0 {
			s.failed++
		}
		delete(s.running, attemptKey{e.Part, e.Attempt})
	case KindTaskRetry:
		v.stage(e.Stage).retried++
	case KindStageBegin:
		s := v.stage(e.Stage)
		s.begin = e.Nanos
		s.key = e.Key
	case KindStageVerdict:
		// Verdicts key by stage name in multiproc; match on Key when the
		// numeric id is absent.
		s := v.stageByKey(e.Stage, e.Key)
		if s != nil {
			s.end = e.Nanos
			s.verdict = e.A
			s.verdictSet = true
		}
	case KindGCSample:
		x := v.exec(e.Exec)
		x.GCCPUNanos = e.A
		x.HeapLiveBytes = e.B
	case KindPageAlloc:
		v.exec(e.Exec).PagesAlloc = e.A
	case KindPageAdopt:
		v.exec(e.Exec).PagesAdopted += e.A
	case KindPageRelease:
		v.exec(e.Exec).PagesReleased += e.A
	case KindPageSpill:
		v.exec(e.Exec).SpillBytes += e.B
	case KindServe:
		v.exec(e.Exec).ServeBytes += e.B
	case KindFetchIssued:
		v.exec(e.Exec).FetchIssued++
	case KindFetchServed:
		x := v.exec(e.Exec)
		x.FetchServed++
		x.FetchBytes += e.B
	case KindFetchFailed:
		v.exec(e.Exec).FetchFailed++
	case KindOccupancy:
		pts := v.occ[e.Shuffle]
		pts = append(pts, OccupancyPoint{Nanos: e.Nanos, Exec: e.Exec, Used: e.A, Footprint: e.B})
		if len(pts) > v.occCap {
			pts = pts[len(pts)-v.occCap:]
		}
		v.occ[e.Shuffle] = pts
	}
	if e.Exec >= -1 {
		x := v.exec(e.Exec)
		if e.Nanos > x.LastNanos {
			x.LastNanos = e.Nanos
		}
	}
}

func (v *View) stage(id int32) *stageAgg {
	s := v.stages[id]
	if s == nil {
		s = &stageAgg{running: make(map[attemptKey]runningAttempt)}
		v.stages[id] = s
	}
	return s
}

func (v *View) stageByKey(id int32, key string) *stageAgg {
	if s, ok := v.stages[id]; ok && (key == "" || s.key == key || s.key == "") {
		if s.key == "" {
			s.key = key
		}
		return s
	}
	if key == "" {
		return v.stage(id)
	}
	for _, s := range v.stages {
		if s.key == key {
			return s
		}
	}
	s := v.stage(id)
	s.key = key
	return s
}

// Events returns the retained raw events in ingest order.
func (v *View) Events() []Event {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return append(append(make([]Event, 0, len(v.buf)), v.buf[v.start:]...), v.buf[:v.start]...)
}

// Dropped reports events lost to ring overwrites (here or upstream).
func (v *View) Dropped() uint64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.dropped
}

// AttemptState is one in-flight attempt in a stage summary.
type AttemptState struct {
	Part        int32 `json:"part"`
	Attempt     int32 `json:"attempt"`
	Exec        int32 `json:"exec"`
	StartNanos  int64 `json:"start_nanos"`
	Speculative bool  `json:"speculative,omitempty"`
}

// StageSummary is the /stages row for one scheduled stage.
type StageSummary struct {
	Stage      int32          `json:"stage"`
	Key        string         `json:"key,omitempty"`
	BeginNanos int64          `json:"begin_nanos,omitempty"`
	EndNanos   int64          `json:"end_nanos,omitempty"`
	Verdict    string         `json:"verdict,omitempty"`
	Started    int64          `json:"attempts_started"`
	Finished   int64          `json:"attempts_finished"`
	Failed     int64          `json:"attempts_failed"`
	Retried    int64          `json:"attempts_retried"`
	Running    []AttemptState `json:"running,omitempty"`
}

// Verdict codes carried in KindStageVerdict.A.
const (
	VerdictOK    = 0
	VerdictAbort = 1
)

func verdictName(set bool, code int64) string {
	if !set {
		return ""
	}
	switch code {
	case VerdictOK:
		return "ok"
	case VerdictAbort:
		return "abort"
	}
	return "unknown"
}

// Stages summarizes every stage seen so far, ordered by stage id.
func (v *View) Stages() []StageSummary {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]StageSummary, 0, len(v.stages))
	for id, s := range v.stages {
		sum := StageSummary{
			Stage: id, Key: s.key, BeginNanos: s.begin, EndNanos: s.end,
			Verdict: verdictName(s.verdictSet, s.verdict),
			Started: s.started, Finished: s.finished,
			Failed: s.failed, Retried: s.retried,
		}
		for k, r := range s.running {
			sum.Running = append(sum.Running, AttemptState{
				Part: k.part, Attempt: k.attempt, Exec: r.exec,
				StartNanos: r.startNanos, Speculative: r.speculative,
			})
		}
		sort.Slice(sum.Running, func(i, j int) bool {
			if sum.Running[i].Part != sum.Running[j].Part {
				return sum.Running[i].Part < sum.Running[j].Part
			}
			return sum.Running[i].Attempt < sum.Running[j].Attempt
		})
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// ExecObs is the per-executor slice of the event stream: data-plane and
// memory activity plus the latest GC sample. The view aggregates straight
// into it.
type ExecObs struct {
	Exec          int32 `json:"exec"`
	LastNanos     int64 `json:"last_event_nanos,omitempty"`
	GCCPUNanos    int64 `json:"gc_cpu_nanos,omitempty"`
	HeapLiveBytes int64 `json:"heap_live_bytes,omitempty"`
	PagesAlloc    int64 `json:"pages_allocated,omitempty"`
	PagesAdopted  int64 `json:"pages_adopted,omitempty"`
	PagesReleased int64 `json:"pages_released,omitempty"`
	SpillBytes    int64 `json:"spill_bytes,omitempty"`
	ServeBytes    int64 `json:"serve_bytes,omitempty"`
	FetchIssued   int64 `json:"fetch_issued,omitempty"`
	FetchServed   int64 `json:"fetch_served,omitempty"`
	FetchFailed   int64 `json:"fetch_failed,omitempty"`
	FetchBytes    int64 `json:"fetch_bytes,omitempty"`
}

// Executors summarizes per-executor observations, ordered by id (the
// driver's pseudo-executor -1 first when present).
func (v *View) Executors() []ExecObs {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]ExecObs, 0, len(v.execs))
	for _, x := range v.execs {
		out = append(out, *x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Exec < out[j].Exec })
	return out
}

// Occupancy returns the retained per-shuffle occupancy series.
func (v *View) Occupancy() map[int64][]OccupancyPoint {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[int64][]OccupancyPoint, len(v.occ))
	for id, pts := range v.occ {
		cp := make([]OccupancyPoint, len(pts))
		copy(cp, pts)
		out[id] = cp
	}
	return out
}

func (v *View) exec(id int32) *ExecObs {
	x := v.execs[id]
	if x == nil {
		x = &ExecObs{Exec: id}
		v.execs[id] = x
	}
	return x
}
