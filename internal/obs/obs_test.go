package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
)

func TestRecorderNilIsDisabled(t *testing.T) {
	var r *Recorder
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
		r.Record(Event{Kind: KindTaskStart, A: int64(i)})
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
		r.Record(Event{Kind: KindTaskRetry, A: int64(i)})
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
				r.Record(Event{Kind: KindGCSample})
			}
		}()
	}
	wg.Wait()
	total := uint64(len(r.Drain(0))) + r.Dropped()
	if total != 800 {
		t.Errorf("drained+dropped = %d, want 800", total)
	}
}

// TestRecorderMatchesQueueModel drives a recorder with random bursts of
// Record and Drain(max) and checks every answer against a plain slice
// queue that drops its oldest event at the capacity: the same events in
// the same order with the same Seqs, the same Len and Dropped. The
// capacities put the bound below, on and across block boundaries.
func TestRecorderMatchesQueueModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 3, 7, 255, 256, 257, 511, 512, 513, 700, 1000} {
		r := NewRecorder(capacity)
		var model []Event
		var seq, dropped uint64
		for op := 0; op < 2000; op++ {
			if rng.Intn(2) == 0 {
				for k := rng.Intn(capacity + capacity/2 + 1); k >= 0; k-- {
					seq++
					e := Event{Kind: KindGCSample, Nanos: int64(seq), A: int64(rng.Int())}
					r.Record(e)
					e.Seq = seq
					if len(model) == capacity {
						model = model[1:]
						dropped++
					}
					model = append(model, e)
				}
			} else {
				max := rng.Intn(capacity + 2)
				n := len(model)
				if max > 0 && n > max {
					n = max
				}
				got := r.Drain(max)
				if len(got) != n {
					t.Fatalf("capacity %d op %d: Drain(%d) = %d events, want %d", capacity, op, max, len(got), n)
				}
				for i := range got {
					if got[i] != model[i] {
						t.Fatalf("capacity %d op %d: drained event %d = %+v, want %+v", capacity, op, i, got[i], model[i])
					}
				}
				model = model[n:]
			}
			if r.Len() != len(model) || r.Dropped() != dropped {
				t.Fatalf("capacity %d op %d: Len %d Dropped %d, want %d and %d", capacity, op, r.Len(), r.Dropped(), len(model), dropped)
			}
		}
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
		{Kind: KindFetchFailed, Exec: 0, Shuffle: 9, Key: "dropped", Nanos: 20},
		{Kind: KindGCSample, Exec: 1, A: 5e6, B: 1 << 20, Nanos: 40},
		{Kind: KindOccupancy, Exec: 0, Shuffle: 9, A: 100, B: 400, Nanos: 50},
		{Kind: KindOccupancy, Exec: 0, Shuffle: 9, A: 200, B: 400, Nanos: 60},
	})
	execs := v.Executors()
	if len(execs) != 2 {
		t.Fatalf("got %d executors, want 2", len(execs))
	}
	if execs[0].LastNanos != 60 || execs[0].GCCPUNanos != 0 {
		t.Errorf("exec 0 = %+v, want its last event at 60 and no GC sample", execs[0])
	}
	if execs[1].LastNanos != 40 || execs[1].GCCPUNanos != 5e6 || execs[1].HeapLiveBytes != 1<<20 {
		t.Errorf("exec 1 = %+v, want the GC sample at 40", execs[1])
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
		evs[i] = Event{Kind: KindOccupancy, Exec: 0, Shuffle: 1, A: 1, B: 1, Nanos: int64(i + 1)}
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
	if pts := v.Occupancy()[1]; len(pts) != 20 {
		t.Errorf("occupancy series holds %d points, want all 20", len(pts))
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

// emptyFreeBlocks takes every block the package's earlier tests gave back,
// so the next recorder's blocks come from the recorder a test closes: the
// list parks at most as many blocks as an untraced ring holds.
func emptyFreeBlocks() {
	for range DefaultCapacity / blockEvents {
		freeBlocks.Get()
	}
}

// TestClosedRecorderGivesItsBlocksToTheNext: a closed recorder's blocks go,
// cleared, to the next recorder, and a late Record and Drain on the closed
// one — a stage's error path racing its Context's Close — reach none of
// them: the closed recorder records and returns nothing, and the next one
// keeps every event it recorded, in order. Run with -race.
func TestClosedRecorderGivesItsBlocksToTheNext(t *testing.T) {
	emptyFreeBlocks()
	a := NewRecorder(0)
	for i := range 300 {
		a.Record(Event{Kind: KindGCSample, A: int64(i), Key: "a"})
	}
	held := map[*Event]bool{&a.blocks[0][0]: true, &a.blocks[1][0]: true}
	a.Close()
	a.Close()

	b := NewRecorder(0)
	const n = 600
	b.Record(Event{Kind: KindOccupancy})
	for _, blk := range b.blocks {
		if !held[&blk[0]] {
			t.Fatal("the next recorder's block is not one the closed recorder gave back")
		}
		for _, e := range blk[1:] {
			if e.Key != "" {
				t.Fatalf("a recycled block still holds the closed recorder's event %+v", e)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 1000 {
			a.Record(Event{Kind: KindTaskStart, Key: "late"})
			if evs := a.Drain(0); evs != nil {
				t.Errorf("a closed recorder drained %d events", len(evs))
				return
			}
		}
	}()
	for i := 1; i < n; i++ {
		b.Record(Event{Kind: KindOccupancy, A: int64(i)})
	}
	wg.Wait()
	if a.Len() != 0 {
		t.Errorf("a closed recorder holds %d events", a.Len())
	}
	evs := b.Drain(0)
	if len(evs) != n {
		t.Fatalf("the next recorder drained %d events, want %d", len(evs), n)
	}
	for i, e := range evs {
		if e.Kind != KindOccupancy || e.A != int64(i) || e.Seq != uint64(i+1) || e.Key != "" {
			t.Fatalf("event %d = %+v, want the next recorder's own event %d", i, e, i)
		}
	}
}
