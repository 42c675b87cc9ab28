package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestRecorderNilIsDisabled(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.Record(Event{Kind: KindTaskStart}) // must not panic
	if got := r.Drain(0); got != nil {
		t.Errorf("nil drain = %v, want nil", got)
	}
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Error("nil recorder reports state")
	}
}

func TestRecorderRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(Event{Kind: KindPageAlloc, A: int64(i)})
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	evs := r.Drain(0)
	if len(evs) != 4 {
		t.Fatalf("drained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.A != int64(i+2) {
			t.Errorf("event %d: A = %d, want %d (oldest overwritten)", i, e.A, i+2)
		}
		if e.Seq == 0 || e.Nanos == 0 {
			t.Errorf("event %d missing seq/timestamp: %+v", i, e)
		}
	}
	if r.Len() != 0 {
		t.Errorf("backlog after full drain = %d", r.Len())
	}
}

func TestRecorderDrainMax(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: KindFetchIssued, A: int64(i)})
	}
	first := r.Drain(2)
	if len(first) != 2 || first[0].A != 0 || first[1].A != 1 {
		t.Fatalf("Drain(2) = %+v, want events 0,1", first)
	}
	rest := r.Drain(0)
	if len(rest) != 3 || rest[0].A != 2 {
		t.Fatalf("second drain = %+v, want events 2..4", rest)
	}
}

func TestRecorderConcurrentRecord(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Kind: KindPageRelease})
			}
		}()
	}
	wg.Wait()
	total := uint64(len(r.Drain(0))) + r.Dropped()
	if total != 800 {
		t.Errorf("drained+dropped = %d, want 800", total)
	}
}

func TestViewStageAggregation(t *testing.T) {
	v := NewView(64)
	v.Ingest([]Event{
		{Kind: KindStageBegin, Stage: 3, Key: "x/1/0/0/map", Nanos: 100},
		{Kind: KindTaskStart, Stage: 3, Part: 0, Attempt: 1, Exec: 0, Nanos: 110},
		{Kind: KindTaskStart, Stage: 3, Part: 1, Attempt: 1, Exec: 1, Nanos: 111},
		{Kind: KindTaskFinish, Stage: 3, Part: 0, Attempt: 1, Exec: 0, A: 50, Nanos: 160},
		{Kind: KindTaskRetry, Stage: 3, Part: 1, Nanos: 170},
		{Kind: KindStageVerdict, Key: "x/1/0/0/map", A: VerdictOK, Nanos: 200},
	})
	stages := v.Stages()
	if len(stages) != 1 {
		t.Fatalf("got %d stages, want 1", len(stages))
	}
	s := stages[0]
	if s.Stage != 3 || s.Key != "x/1/0/0/map" {
		t.Errorf("stage identity = %d %q", s.Stage, s.Key)
	}
	if s.Started != 2 || s.Finished != 1 || s.Retried != 1 {
		t.Errorf("counts = started %d finished %d retried %d", s.Started, s.Finished, s.Retried)
	}
	if s.Verdict != "ok" || s.EndNanos != 200 {
		t.Errorf("verdict %q end %d, want ok/200", s.Verdict, s.EndNanos)
	}
	if len(s.Running) != 1 || s.Running[0].Part != 1 {
		t.Errorf("running = %+v, want part 1 only", s.Running)
	}
}

func TestViewExecutorAndOccupancy(t *testing.T) {
	v := NewView(64)
	v.Ingest([]Event{
		{Kind: KindPageAlloc, Exec: 0, A: 7, Nanos: 10},
		{Kind: KindPageSpill, Exec: 0, B: 4096, Nanos: 20},
		{Kind: KindFetchServed, Exec: 1, B: 1024, Nanos: 30},
		{Kind: KindGCSample, Exec: 1, A: 5e6, B: 1 << 20, Nanos: 40},
		{Kind: KindOccupancy, Exec: 0, Shuffle: 9, A: 100, B: 400, Nanos: 50},
		{Kind: KindOccupancy, Exec: 0, Shuffle: 9, A: 200, B: 400, Nanos: 60},
	})
	execs := v.Executors()
	if len(execs) != 2 {
		t.Fatalf("got %d executors, want 2", len(execs))
	}
	if execs[0].PagesAlloc != 7 || execs[0].SpillBytes != 4096 {
		t.Errorf("exec 0 = %+v", execs[0])
	}
	if execs[1].FetchBytes != 1024 || execs[1].GCCPUNanos != 5e6 {
		t.Errorf("exec 1 = %+v", execs[1])
	}
	occ := v.Occupancy()
	if pts := occ[9]; len(pts) != 2 || pts[1].Used != 200 {
		t.Errorf("occupancy series = %+v", occ)
	}
}

func TestViewRingBound(t *testing.T) {
	v := NewView(8)
	evs := make([]Event, 20)
	for i := range evs {
		evs[i] = Event{Kind: KindServe, Exec: 0, B: 1, Nanos: int64(i + 1)}
	}
	if cap(v.buf) != 0 {
		t.Errorf("a view with no events holds a %d-event ring; it grows as events arrive", cap(v.buf))
	}
	v.Ingest(evs[:5]) // still growing,
	v.Ingest(evs[5:]) // then full and wrapped one and a half times
	got := v.Events()
	if len(got) != 8 || cap(v.buf) > 8 {
		t.Errorf("retained %d events in a ring of %d, want 8 in 8", len(got), cap(v.buf))
	}
	for i, e := range got {
		if e.Nanos != int64(13+i) {
			t.Errorf("retained event %d is #%d, want the last 8 in ingest order (#%d)", i, e.Nanos, 13+i)
		}
	}
	if v.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", v.Dropped())
	}
	// Aggregates still fold every event, not just the retained window.
	if x := v.Executors(); len(x) != 1 || x[0].ServeBytes != 20 {
		t.Errorf("serve bytes = %+v, want 20", x)
	}
}

func TestWriteTraceWellFormed(t *testing.T) {
	events := []Event{
		{Kind: KindStageBegin, Stage: 1, Key: "x/0/0/0/map", Nanos: 1000},
		{Kind: KindTaskStart, Stage: 1, Part: 0, Attempt: 1, Exec: 0, Nanos: 1100},
		{Kind: KindTaskFinish, Stage: 1, Part: 0, Attempt: 1, Exec: 0, A: 900, Nanos: 2000},
		{Kind: KindTaskRetry, Stage: 1, Part: 1, Exec: 1, Nanos: 2100},
		{Kind: KindExecutorBlacklisted, Exec: 1, Nanos: 2200},
		{Kind: KindStageVerdict, Stage: 1, Key: "x/0/0/0/map", A: VerdictOK, Nanos: 2500},
		{Kind: KindGCSample, Exec: 0, A: 3e6, B: 2 << 20, Nanos: 2600},
		{Kind: KindOccupancy, Exec: 0, Shuffle: 4, A: 10, B: 40, Nanos: 2700},
		{Kind: KindTaskStart, Stage: 1, Part: 2, Attempt: 1, Exec: 0, Nanos: 2800}, // still open
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	var haveX, haveStage, haveInstant, haveCounter, haveMeta bool
	for _, e := range arr {
		switch e["ph"] {
		case "X":
			if e["cat"] == "stage" {
				haveStage = true
			} else {
				haveX = true
			}
		case "i":
			haveInstant = true
		case "C":
			haveCounter = true
		case "M":
			haveMeta = true
		}
	}
	if !haveX || !haveStage || !haveInstant || !haveCounter || !haveMeta {
		t.Errorf("trace missing shapes: task=%v stage=%v instant=%v counter=%v meta=%v",
			haveX, haveStage, haveInstant, haveCounter, haveMeta)
	}
}

func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var arr []any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("empty trace is not a JSON array: %v", err)
	}
}
