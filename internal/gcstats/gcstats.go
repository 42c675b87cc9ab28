// Package gcstats measures garbage-collection cost and heap pressure via
// the Go runtime, playing the role JProfiler and the JVM GC logs play in
// the paper's evaluation (§6). The headline metric is GC CPU seconds
// (/cpu/classes/gc/total:cpu-seconds), the closest Go analogue of the
// "time of GC" the paper reports; heap object counts drive the lifetime
// timelines of Figures 8(a) and 9(a). ReadProcMem adds the kernel's view of
// the process (peak RSS, split into anonymous and file-backed), which is
// what says whether memory that left the Go heap left the process too.
package gcstats

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Snapshot is a point-in-time reading of the collector's counters.
type Snapshot struct {
	When         time.Time
	GCCPUSeconds float64       // cumulative CPU seconds spent in GC
	NumGC        uint32        // completed GC cycles
	PauseTotal   time.Duration // cumulative stop-the-world pause time
	HeapObjects  uint64        // live objects (approximate, last GC)
	HeapAlloc    uint64        // bytes of allocated heap objects
	TotalAlloc   uint64        // cumulative bytes allocated
	Mallocs      uint64        // cumulative objects allocated
}

var gcCPUSample = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// Read returns the current counters. It does not force a GC.
func Read() Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := Snapshot{
		When:        time.Now(),
		NumGC:       ms.NumGC,
		PauseTotal:  time.Duration(ms.PauseTotalNs),
		HeapObjects: ms.HeapObjects,
		HeapAlloc:   ms.HeapAlloc,
		TotalAlloc:  ms.TotalAlloc,
		Mallocs:     ms.Mallocs,
	}
	samples := gcCPUSample
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.GCCPUSeconds = samples[0].Value.Float64()
	}
	return s
}

// Delta is the difference between two snapshots over a measured region.
type Delta struct {
	Wall         time.Duration
	GCCPUSeconds float64
	NumGC        uint32
	PauseTotal   time.Duration
	AllocBytes   uint64
	AllocObjects uint64
}

// Sub returns the delta from a to s (s taken after a).
func (s Snapshot) Sub(a Snapshot) Delta {
	return Delta{
		Wall:         s.When.Sub(a.When),
		GCCPUSeconds: s.GCCPUSeconds - a.GCCPUSeconds,
		NumGC:        s.NumGC - a.NumGC,
		PauseTotal:   s.PauseTotal - a.PauseTotal,
		AllocBytes:   s.TotalAlloc - a.TotalAlloc,
		AllocObjects: s.Mallocs - a.Mallocs,
	}
}

// GCRatio returns the fraction of wall time attributable to GC CPU work.
// With GOMAXPROCS > 1 the ratio can exceed 1 in pathological cases; it is
// reported raw, as the paper reports gc/exec ratios.
func (d Delta) GCRatio() float64 {
	if d.Wall <= 0 {
		return 0
	}
	return d.GCCPUSeconds / d.Wall.Seconds()
}

// Measure runs f and returns the counter delta across it.
func Measure(f func()) Delta {
	before := Read()
	f()
	return Read().Sub(before)
}

// Sample is one point of a lifetime timeline (Figures 8(a)/9(a)).
type Sample struct {
	Elapsed      time.Duration
	HeapObjects  uint64
	HeapAlloc    uint64
	GCCPUSeconds float64 // cumulative since timeline start
	NumGC        uint32  // cumulative since timeline start
}

// Timeline samples the collector at a fixed interval on a background
// goroutine, reproducing the periodic recording the paper does with
// JProfiler.
type Timeline struct {
	interval time.Duration
	start    Snapshot
	samples  []Sample
	stop     chan struct{}
	done     chan struct{}
}

// StartTimeline begins sampling every interval until Stop is called.
func StartTimeline(interval time.Duration) *Timeline {
	t := &Timeline{
		interval: interval,
		start:    Read(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go t.run()
	return t
}

func (t *Timeline) run() {
	defer close(t.done)
	ticker := time.NewTicker(t.interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			t.samples = append(t.samples, t.sample())
		}
	}
}

func (t *Timeline) sample() Sample {
	s := Read()
	return Sample{
		Elapsed:      s.When.Sub(t.start.When),
		HeapObjects:  s.HeapObjects,
		HeapAlloc:    s.HeapAlloc,
		GCCPUSeconds: s.GCCPUSeconds - t.start.GCCPUSeconds,
		NumGC:        s.NumGC - t.start.NumGC,
	}
}

// Stop ends sampling and returns the collected samples plus a final one.
func (t *Timeline) Stop() []Sample {
	close(t.stop)
	<-t.done
	t.samples = append(t.samples, t.sample())
	return t.samples
}

// Sampler invokes a callback with a fresh Snapshot at a fixed interval
// on a background goroutine — the push-style sibling of Timeline, for
// consumers that stream samples somewhere (the obs event spine) instead
// of collecting them for a post-run plot. Stop is idempotent and waits
// for the goroutine to exit, so an owner's Close can call it safely on
// every path.
type Sampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartSampler calls fn(Read()) every interval until Stop. fn runs on
// the sampler goroutine; it must not block for long.
func StartSampler(interval time.Duration, fn func(Snapshot)) *Sampler {
	s := &Sampler{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-ticker.C:
				fn(Read())
			}
		}
	}()
	return s
}

// Stop ends sampling and waits for the sampler goroutine to finish. A
// nil receiver and repeated calls are no-ops.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// WithGCPercent runs f under the given GOGC value, restoring the previous
// setting afterwards. The paper's Table 4 GC-algorithm sweep (PS vs CMS vs
// G1) maps onto collector aggressiveness here: lower GOGC collects more
// eagerly (lower pause targets, more CPU), higher GOGC trades memory for
// fewer cycles.
func WithGCPercent(percent int, f func()) {
	old := debug.SetGCPercent(percent)
	defer debug.SetGCPercent(old)
	f()
}

// WithMemoryLimit runs f under a soft heap limit, restoring the previous
// limit afterwards. This emulates the paper's JVM heap-size sweeps
// (Table 5's 1.1 GB vs 20 GB executors): a tight limit forces the
// collector into continuous operation exactly like an almost-full JVM
// heap.
func WithMemoryLimit(bytes int64, f func()) {
	old := debug.SetMemoryLimit(bytes)
	defer debug.SetMemoryLimit(old)
	f()
}

// ForceGC runs a full collection cycle, for experiment isolation between
// measured regions.
func ForceGC() {
	runtime.GC()
}

// ProcMem is the process's memory as the kernel accounts it, in bytes —
// what the Go heap figures cannot see: pages the runtime has not returned,
// and file mappings such as a swapped-out Deca block's, which are page
// cache charged to whoever touched them. All zero where /proc/self/status
// does not exist.
type ProcMem struct {
	PeakRSS int64 // VmHWM: the resident set's high-water mark since the process started
	RSSAnon int64 // RssAnon: resident anonymous memory — the heap, stacks, the manager's pages
	RSSFile int64 // RssFile: resident file-backed memory — the binary, mapped swap files
}

// ReadProcMem reads the current figures.
func ReadProcMem() ProcMem {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ProcMem{}
	}
	return parseProcStatus(status)
}

// parseProcStatus picks the three "<Key>:   <n> kB" lines out of a
// /proc/<pid>/status image; a line that is missing or malformed reads as 0.
func parseProcStatus(status []byte) ProcMem {
	var m ProcMem
	for _, line := range strings.Split(string(status), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		var dst *int64
		switch key {
		case "VmHWM":
			dst = &m.PeakRSS
		case "RssAnon":
			dst = &m.RSSAnon
		case "RssFile":
			dst = &m.RSSFile
		default:
			continue
		}
		if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64); err == nil {
			*dst = kb << 10
		}
	}
	return m
}
