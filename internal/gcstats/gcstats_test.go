package gcstats

import (
	"runtime"
	"testing"
	"time"
)

func TestReadMonotonic(t *testing.T) {
	a := Read()
	// Generate garbage and force a cycle.
	for i := 0; i < 1000; i++ {
		_ = make([]byte, 1024)
	}
	runtime.GC()
	b := Read()
	if b.NumGC <= a.NumGC {
		t.Errorf("NumGC did not advance: %d -> %d", a.NumGC, b.NumGC)
	}
	if b.TotalAlloc < a.TotalAlloc {
		t.Error("TotalAlloc went backwards")
	}
	if b.GCCPUSeconds < a.GCCPUSeconds {
		t.Error("GCCPUSeconds went backwards")
	}
}

func TestMeasureCountsAllocations(t *testing.T) {
	var keep [][]byte
	before := Read()
	for i := 0; i < 100; i++ {
		keep = append(keep, make([]byte, 4096))
	}
	d := Read().Sub(before)
	_ = keep
	if d.AllocBytes < 100*4096 {
		t.Errorf("AllocBytes = %d, want >= %d", d.AllocBytes, 100*4096)
	}
	if d.AllocObjects == 0 {
		t.Error("AllocObjects = 0")
	}
	if d.Wall <= 0 {
		t.Error("Wall <= 0")
	}
}

func TestGCRatio(t *testing.T) {
	d := Delta{Wall: 2 * time.Second, GCCPUSeconds: 1}
	if got := d.GCRatio(); got != 0.5 {
		t.Errorf("GCRatio = %v, want 0.5", got)
	}
	if (Delta{}).GCRatio() != 0 {
		t.Error("zero delta ratio should be 0")
	}
}

// A lifetime timeline is the snapshots a Sampler delivers, collected in
// order: time and the cumulative GC counters must never run backwards
// across them, however the collector interleaves with the ticks.
func TestSamplerSnapshotsAreMonotonic(t *testing.T) {
	var samples []Snapshot
	s := StartSampler(5*time.Millisecond, func(snap Snapshot) { samples = append(samples, snap) })
	deadline := time.Now().Add(60 * time.Millisecond)
	var keep [][]byte
	for time.Now().Before(deadline) {
		keep = append(keep, make([]byte, 1<<14))
		if len(keep) > 256 {
			keep = keep[:0]
			runtime.GC()
		}
	}
	s.Stop() // waits for the sampler goroutine: samples is ours from here
	if len(samples) < 2 {
		t.Fatalf("collected %d samples, want >= 2", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].When.Before(samples[i-1].When) {
			t.Error("sample times not monotonic")
		}
		if samples[i].GCCPUSeconds < samples[i-1].GCCPUSeconds || samples[i].NumGC < samples[i-1].NumGC {
			t.Error("cumulative GC counters not monotonic")
		}
	}
}

func TestSamplerDeliversAndStops(t *testing.T) {
	ch := make(chan Snapshot, 64)
	s := StartSampler(time.Millisecond, func(snap Snapshot) {
		select {
		case ch <- snap:
		default:
		}
	})
	select {
	case snap := <-ch:
		if snap.When.IsZero() {
			t.Error("sampler delivered a zero snapshot")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sampler never fired")
	}
	s.Stop()
	s.Stop() // idempotent
	var nilSampler *Sampler
	nilSampler.Stop() // nil-safe
}

func TestSamplerStopEndsGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	samplers := make([]*Sampler, 8)
	for i := range samplers {
		samplers[i] = StartSampler(time.Millisecond, func(Snapshot) {})
	}
	for _, s := range samplers {
		s.Stop()
	}
	// Stop waits for the goroutine's deferred close, but scheduling of the
	// final exit can lag; settle briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines: before=%d after=%d — sampler goroutines leaked", before, runtime.NumGoroutine())
}

func TestWithGCPercent(t *testing.T) {
	ran := false
	WithGCPercent(50, func() { ran = true })
	if !ran {
		t.Error("f did not run")
	}
}

func TestWithMemoryLimit(t *testing.T) {
	ran := false
	WithMemoryLimit(1<<30, func() { ran = true })
	if !ran {
		t.Error("f did not run")
	}
}

func TestForceGC(t *testing.T) {
	a := Read()
	ForceGC()
	b := Read()
	if b.NumGC <= a.NumGC {
		t.Error("ForceGC did not run a cycle")
	}
}

func TestParseProcStatus(t *testing.T) {
	status := "Name:\tdeca-bench\nVmPeak:\t 1234567 kB\nVmHWM:\t  178924 kB\nVmRSS:\t  170000 kB\n" +
		"RssAnon:\t  112640 kB\nRssFile:\t   66284 kB\nRssShmem:\t       0 kB\nThreads:\t7\n"
	got := parseProcStatus([]byte(status))
	if want := (ProcMem{PeakRSS: 178924 << 10, RSSAnon: 112640 << 10, RSSFile: 66284 << 10}); got != want {
		t.Errorf("parsed %+v, want %+v", got, want)
	}
	if got := parseProcStatus([]byte("VmHWM:\tmany kB\nRssAnon 12 kB\n")); got != (ProcMem{}) {
		t.Errorf("malformed lines parsed as %+v", got)
	}
}

func TestReadProcMem(t *testing.T) {
	m := ReadProcMem()
	if runtime.GOOS != "linux" {
		if m != (ProcMem{}) {
			t.Errorf("ReadProcMem = %+v where there is no /proc/self/status", m)
		}
		return
	}
	if m.PeakRSS <= 0 || m.RSSAnon <= 0 {
		t.Errorf("ReadProcMem = %+v: a running process has a peak and a heap", m)
	}
}
