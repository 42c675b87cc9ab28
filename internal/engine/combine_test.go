package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"deca/internal/decompose"
	"deca/internal/obs"
	"deca/internal/shuffle"
	"deca/internal/transport"
)

// frameRecorder keeps the frame of every map output the map body registers,
// as a serve would ship it at registration, one entry per registration.
type frameRecorder struct {
	t      *testing.T
	mu     sync.Mutex
	frames map[transport.MapOutputID][][]byte
}

func (r *frameRecorder) register(id transport.MapOutputID, p transport.Payload) {
	var frame bytes.Buffer
	fs, err := p.Segments()
	if err == nil {
		_, err = fs.WriteTo(&frame)
		fs.Release()
	}
	if err != nil {
		r.t.Errorf("framing %v: %v", id, err)
	}
	r.mu.Lock()
	r.frames[id] = append(r.frames[id], frame.Bytes())
	r.mu.Unlock()
}

// frameCount is a frame's record count: the uvarint after its kind byte.
func frameCount(frame []byte) int {
	n, _ := binary.Uvarint(frame[1:])
	return int(n)
}

// The combine rule's regimes, as WordCount shapes them: M map tasks of
// 2 × 40 k words each, over R = 2 reducers, so 40 k Puts per map buffer.
const combineM, combineR, combineWords = 2, 2, 2 * 40_000

// combineRegime is one row of the rule's table: a map task's i-th word, and
// whether every buffer stops combining at its 1,024th Put.
type combineRegime struct {
	name  string
	word  func(m, i int, rng *rand.Rand) string
	stops bool
}

var combineRegimes = []combineRegime{
	// 50 keys in turn: every buffer meets every key of its reducer hundreds
	// of times.
	{"few=true", func(_, i int, _ *rand.Rand) string { return fmt.Sprintf("w%d", i%50) }, false},
	// Uniform over 10 k keys, 5 k a buffer: ≈ 926 of a buffer's first 1 Ki
	// Puts are new keys, under the cutoff (972).
	{"keys=5k", uniformWord(2 * 5_000), false},
	// Uniform over 40 k keys, 20 k a buffer: ≈ 998 are new, over it.
	{"keys=20k", uniformWord(2 * 20_000), true},
	// Each map task's 40 k keys, drawn injectively from a space of 640 k,
	// twice over: a buffer's first 1 Ki Puts are all distinct keys, and
	// every key's second Put comes after them.
	{"few=false", func(m, i int, _ *rand.Rand) string {
		key := m*combineWords/2 + i%(combineWords/2)
		return fmt.Sprintf("w%07x", key*7919%640_000)
	}, true},
}

// uniformWord draws a word uniformly from a space of n.
func uniformWord(n int) func(m, i int, rng *rand.Rand) string {
	return func(_, _ int, rng *rand.Rand) string { return fmt.Sprintf("u%d", rng.Intn(n)) }
}

// input is the job's words and the closed form of their counts.
func (c combineRegime) input() ([]decompose.Pair[string, int64], map[string]int64) {
	var pairs []decompose.Pair[string, int64]
	want := make(map[string]int64)
	for m := 0; m < combineM; m++ {
		rng := rand.New(rand.NewSource(int64(m) + 1))
		for i := 0; i < combineWords; i++ {
			w := c.word(m, i, rng)
			pairs = append(pairs, KV(w, int64(1)))
			want[w]++
		}
	}
	return pairs, want
}

// wantCounts is what each map output's frame must count, by map task and
// reducer: the distinct keys a combining buffer was given; for a stopped
// one, the distinct keys of its first 1,024 Puts and every Put after them.
func (c combineRegime) wantCounts(pairs []decompose.Pair[string, int64]) (n [combineM][combineR]int) {
	hash := shuffle.StringKey().Hash
	for m := 0; m < combineM; m++ {
		var puts [combineR]int
		seen := make(map[string]bool)
		for _, p := range pairs[m*combineWords : (m+1)*combineWords] {
			r := shuffle.Partition(hash(p.Key), combineR)
			puts[r]++
			if c.stops && puts[r] > 1<<10 || !seen[p.Key] {
				n[m][r]++
			}
			seen[p.Key] = true
		}
	}
	return n
}

func combineCtx(t *testing.T, mode Mode) (*Context, *frameRecorder) {
	ctx := New(Config{NumExecutors: 1, Parallelism: 2, Mode: mode, PageSize: 1 << 16, SpillDir: t.TempDir()})
	t.Cleanup(ctx.Close)
	rec := &frameRecorder{t: t, frames: make(map[transport.MapOutputID][][]byte)}
	ctx.testRegister = rec.register
	return ctx, rec
}

// TestMapSideCombineRule: a map buffer that finds few of its first 1 Ki
// Puts' keys already present (more than 95 % new) stops combining, in all
// three modes, and one that finds more keeps on: 50-key and 5 k-key buffer
// spaces combine, 20 k-key and 640 k-key ones stop. A combining row's
// counter stays 0 and each frame counts the distinct keys its buffer was
// given; a stopping row's counter is M×R and each frame counts its first
// 1 Ki Puts' distinct keys and every Put after. Either way each mode's
// answer is the closed form.
func TestMapSideCombineRule(t *testing.T) {
	for _, regime := range combineRegimes {
		pairs, want := regime.input()
		counts, stopped := regime.wantCounts(pairs), int64(0)
		if regime.stops {
			stopped = combineM * combineR
		}
		for _, mode := range []Mode{ModeSpark, ModeSparkSer, ModeDeca} {
			t.Run(regime.name+"/"+mode.String(), func(t *testing.T) {
				ctx, rec := combineCtx(t, mode)
				got, err := CollectMap(ReduceByKey(Parallelize(ctx, pairs, combineM), stringOps(combineR),
					func(a, b int64) int64 { return a + b }))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d keys counted, not the closed form's %d", len(got), len(want))
				}
				if n := ctx.Counters()[obs.ShuffleUncombined]; n != stopped {
					t.Errorf("%d buffers stopped combining, want %d", n, stopped)
				}
				if len(rec.frames) != combineM*combineR {
					t.Fatalf("%d map outputs registered, want %d", len(rec.frames), combineM*combineR)
				}
				for id, frames := range rec.frames {
					if n := frameCount(frames[0]); n != counts[id.MapTask][id.Reduce] {
						t.Errorf("map %d reducer %d: the frame counts %d records, want %d", id.MapTask, id.Reduce, n, counts[id.MapTask][id.Reduce])
					}
				}
			})
		}
	}
}

// TestUncombinedMapOutputRerunsIdentically: the rule reads only the
// partition's records, so a map task re-run by the lineage repair stops
// the same buffers at the same Put and registers byte-identical frames —
// the map stage's idempotence. (Deca frames: an Object frame enumerates a
// Go map, in no fixed order.)
func TestUncombinedMapOutputRerunsIdentically(t *testing.T) {
	pairs, want := combineRegimes[len(combineRegimes)-1].input()
	ctx, rec := combineCtx(t, ModeDeca)
	ctx.testAfterMapStage = func(id transport.ShuffleID) {
		var ids []transport.MapOutputID
		for r := 0; r < combineR; r++ {
			ids = append(ids, transport.MapOutputID{Shuffle: id, MapTask: 0, Reduce: r})
		}
		for _, pl := range ctx.plane.Commit(ids) {
			pl.Data.(releasable).Release()
		}
	}
	got, err := CollectMap(ReduceByKey(Parallelize(ctx, pairs, combineM), stringOps(combineR),
		func(a, b int64) int64 { return a + b }))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the recovered job's counts differ from the closed form")
	}
	if n, reruns := ctx.Counters()[obs.ShuffleUncombined], ctx.Counters()[obs.LineageMapReruns]; reruns != 1 || n != (combineM+1)*combineR {
		t.Fatalf("%d map re-runs and %d stopped buffers, want 1 and %d", reruns, n, (combineM+1)*combineR)
	}
	reran := 0
	for id, frames := range rec.frames {
		if id.MapTask != 0 {
			continue
		}
		reran++
		if len(frames) != 2 || !bytes.Equal(frames[0], frames[1]) {
			t.Errorf("reducer %d: map task 0 registered %d frames, want 2 byte-identical ones", id.Reduce, len(frames))
		}
	}
	if reran != combineR {
		t.Errorf("map task 0 registered outputs for %d reducers, want %d", reran, combineR)
	}
}
