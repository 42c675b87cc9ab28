package chaos

import (
	"errors"
	"io"
	"testing"

	"deca/internal/obs"
	"deca/internal/sched"
	"deca/internal/transport"
)

// The injector must satisfy the scheduler's fault seam.
var _ sched.FaultInjector = (*Injector)(nil)

func TestRollIsDeterministicAndUniformish(t *testing.T) {
	a := New(42)
	b := New(42)
	other := New(43)
	var hits int
	const n = 10_000
	differs := false
	for i := 0; i < n; i++ {
		va := a.roll("task", int64(i), 3, 1)
		vb := b.roll("task", int64(i), 3, 1)
		if va != vb {
			t.Fatalf("same seed, different roll at %d: %v != %v", i, va, vb)
		}
		if va < 0 || va >= 1 {
			t.Fatalf("roll out of range: %v", va)
		}
		if va != other.roll("task", int64(i), 3, 1) {
			differs = true
		}
		if va < 0.05 {
			hits++
		}
	}
	if !differs {
		t.Error("different seeds rolled identically")
	}
	// A 5% threshold should hit near 5% of the time.
	if hits < n*3/100 || hits > n*7/100 {
		t.Errorf("5%% threshold hit %d/%d times", hits, n)
	}
}

func TestTaskFailureInjectionRerollsPerAttempt(t *testing.T) {
	inj := New(7)
	inj.TaskFailureRate = 0.5
	failedAttempt1 := -1
	for part := 0; part < 64; part++ {
		if inj.BeforeAttempt(1, part, 1, 0) != nil {
			failedAttempt1 = part
			break
		}
	}
	if failedAttempt1 < 0 {
		t.Fatal("rate 0.5 injected nothing across 64 tasks")
	}
	// The same coordinates fail again (determinism)...
	err := inj.BeforeAttempt(1, failedAttempt1, 1, 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("re-rolled decision changed: %v", err)
	}
	// ...but some retry succeeds within a few attempts (independent rolls).
	recovered := false
	for attempt := 2; attempt < 12; attempt++ {
		if inj.BeforeAttempt(1, failedAttempt1, attempt, 0) == nil {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Error("10 consecutive attempts all injected at rate 0.5 (suspect hash)")
	}
}

func TestKillExecutorAfterN(t *testing.T) {
	inj := New(1)
	inj.KillExecutor = 2
	inj.KillAfter = 3
	var kills []int
	inj.OnKill = func(exec int) { kills = append(kills, exec) }
	for i := 0; i < 3; i++ {
		if err := inj.BeforeAttempt(1, i, 1, 2); err != nil {
			t.Fatalf("attempt %d on executor 2 should pre-date the kill: %v", i, err)
		}
	}
	if err := inj.BeforeAttempt(1, 9, 1, 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("attempt after the kill survived: %v", err)
	}
	if err := inj.BeforeAttempt(1, 9, 1, 1); err != nil {
		t.Fatalf("other executors must be unaffected: %v", err)
	}
	if err := inj.BeforeAttempt(1, 10, 1, 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("a second attempt on the dead executor survived: %v", err)
	}
	if len(kills) != 1 || kills[0] != 2 {
		t.Errorf("OnKill fired for %v, want once for executor 2", kills)
	}
}

// TestFetchFaultFiresBeforeThePlane consults the injector before the
// plane, as the engine's fetch loop does: an injected failure does not
// consume the registration and the retry goes through untouched, and a
// lost output is a definitive miss, decided after the injected failure.
func TestFetchFaultFiresBeforeThePlane(t *testing.T) {
	plane := transport.NewInProcess()
	defer plane.Close()
	inj := New(1)
	inj.FailFetchN = 1
	id := transport.MapOutputID{Shuffle: 1, MapTask: 0, Reduce: 0}
	if err := plane.Register(id, transport.Payload{
		Data: "buf", SrcExecutor: 0, Bytes: 3,
		Encode: func(w io.Writer) error { _, err := io.WriteString(w, "buf"); return err },
	}); err != nil {
		t.Fatal(err)
	}
	open := func(r transport.FrameReader, size int64) (transport.Decoded, error) {
		b, err := io.ReadAll(r)
		return transport.Decoded{Data: string(b), MemBytes: size}, err
	}
	injected := 0
	fetch := func() (transport.Payload, bool, error) {
		if lost, err := inj.FetchFault(id); lost || err != nil {
			if errors.Is(err, ErrInjected) {
				injected++
			}
			return transport.Payload{}, false, err
		}
		return plane.Fetch(id, 0, open)
	}

	_, ok, err := fetch()
	if ok || !errors.Is(err, ErrInjected) {
		t.Fatalf("first fetch = (ok=%v, err=%v), want injected failure", ok, err)
	}
	if n := plane.Counters(0)[obs.ShuffleOutputsPinned]; n != 1 {
		t.Fatalf("injected failure consumed the registration (pinned=%d)", n)
	}
	// The retry goes through untouched.
	p, ok, err := fetch()
	if err != nil || !ok || p.Data != "buf" {
		t.Fatalf("retry fetch = (%v, %v, %v)", p, ok, err)
	}
	inj.LoseOutput = func(lost transport.MapOutputID) bool { return lost == id }
	if _, ok, err := fetch(); ok || err != nil {
		t.Errorf("fetch of a lost output = (ok=%v, err=%v), want a definitive miss", ok, err)
	}
	if injected != 1 {
		t.Errorf("fetch failures = %d, want 1", injected)
	}
}

func TestFetchFailureRateRerollsPerTry(t *testing.T) {
	inj := New(11)
	inj.FetchFailureRate = 0.5
	id := transport.MapOutputID{Shuffle: 3, MapTask: 1, Reduce: 2}
	sawFailure, sawSuccess := false, false
	for try := 0; try < 32; try++ {
		if _, err := inj.FetchFault(id); err != nil {
			sawFailure = true
		} else {
			sawSuccess = true
		}
		if sawFailure && sawSuccess {
			break
		}
	}
	if !sawFailure || !sawSuccess {
		t.Errorf("rate 0.5 over 32 tries: failure=%v success=%v", sawFailure, sawSuccess)
	}
}
