package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// The combine rule's two regimes, as WordCount shapes them: M map tasks
// of 2 × 40 k words each, over R = 2 reducers, so 40 k Puts per map buffer.
const combineM, combineR, combineWords = 2, 2, 2 * 40_000

// combineInput is the job's words and the closed form of their counts.
// few: 50 keys in turn, every buffer meets every key of its reducer
// hundreds of times. many: each map task's 40 k keys, drawn injectively
// from a space of 640 k, twice over — a buffer's first 16 Ki Puts are all
// distinct keys, and every key's second Put comes after them.
func combineInput(few bool) ([]decompose.Pair[string, int64], map[string]int64) {
	var pairs []decompose.Pair[string, int64]
	want := make(map[string]int64)
	for m := 0; m < combineM; m++ {
		for i := 0; i < combineWords; i++ {
			var w string
			if few {
				w = fmt.Sprintf("w%d", i%50)
			} else {
				key := m*combineWords/2 + i%(combineWords/2)
				w = fmt.Sprintf("w%07x", key*7919%640_000)
			}
			pairs = append(pairs, KV(w, int64(1)))
			want[w]++
		}
	}
	return pairs, want
}

// wantCounts is what each map output's frame must count, by map task and
// reducer: the distinct keys a combining buffer was given, or every Put a
// stopped one was (none of its keys repeats before the stop).
func wantCounts(pairs []decompose.Pair[string, int64], few bool) (n [combineM][combineR]int) {
	hash := shuffle.StringKey().Hash
	for m := 0; m < combineM; m++ {
		seen := make(map[string]bool)
		for _, p := range pairs[m*combineWords : (m+1)*combineWords] {
			if !few || !seen[p.Key] {
				n[m][shuffle.Partition(hash(p.Key), combineR)]++
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

// TestMapSideCombineRule: a map buffer that finds few of its first 16 Ki
// Puts' keys already present stops combining, in all three modes, and one
// that finds many keeps on. Few keys: the counter stays 0 and each frame
// counts the distinct keys its buffer was given. Many: every buffer stops
// (the counter is M×R) and its frame counts every Put. Either way each
// mode's answer is the closed form.
func TestMapSideCombineRule(t *testing.T) {
	for _, few := range []bool{true, false} {
		pairs, want := combineInput(few)
		counts, stopped := wantCounts(pairs, few), int64(combineM*combineR)
		if few {
			stopped = 0
		}
		for _, mode := range []Mode{ModeSpark, ModeSparkSer, ModeDeca} {
			t.Run(fmt.Sprintf("few=%v/%s", few, mode), func(t *testing.T) {
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
	pairs, want := combineInput(false)
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
