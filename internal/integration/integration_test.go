// Package integration_test exercises cross-module flows that no single
// package owns: the engine's hand-written codecs against the layouts the
// analysis chain compiles (no job runs that chain), and whole-pipeline
// memory hygiene. (The Figure 7(b) hand-off from a grouped shuffle buffer
// into a cached page block is shuffle.DecaGroup.WriteLists; its test lives
// beside it.)
package integration_test

import (
	"reflect"
	"testing"

	"deca/internal/core"
	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/memory"
	"deca/internal/obs"
	"deca/internal/shuffle"
	"deca/internal/udt"
	"deca/internal/workloads"
)

// TestPlannerEngineConsistency: the decisions core.Optimize makes for the
// paper's jobs must match what the engine actually does under the
// corresponding configuration — decomposition requires exactly the
// conditions the engine's Deca fast paths check.
func TestPlannerEngineConsistency(t *testing.T) {
	plan, err := core.Optimize(core.WCJob())
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Decisions["count-agg"]
	if d.Mode != core.FullyDecompose {
		t.Fatalf("planner: count-agg = %s", d.Mode)
	}
	// For a value the planner refuses (RFST string), the engine's buffer
	// constructor refuses too.
	mem := memory.NewManager(1024, 0)
	_, err = shuffle.NewDecaAgg[int64, string](mem,
		func(a, b string) string { return a + b },
		decompose.Int64Codec{}, decompose.StringCodec{}, "")
	if err == nil {
		t.Error("engine accepted a buffer the planner proved unsafe")
	}
}

// TestLabeledPointCodecIsCompiledLayout: the engine's hand-written LR
// record codec is the layout the analysis chain derives for the points
// cache (core.Optimize → CompileLayouts, Figure 2), less the DenseVector's
// offset/stride/length ints, which the codec drops as constants. The label
// and every feature sit at the compiled offsets.
func TestLabeledPointCodecIsCompiledLayout(t *testing.T) {
	const D = 10
	plan, err := core.Optimize(core.LRJob())
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := plan.CompileLayouts(core.Bindings{"D": D})
	if err != nil {
		t.Fatal(err)
	}
	layout := compiled["points-cache"].ElemLayout
	codec := workloads.LabeledPointCodec{Dim: D}

	dropped := 0
	for _, path := range []string{"features.offset", "features.stride", "features.length"} {
		slot := layout.Scalar(path)
		if slot.Prim != udt.PrimInt32 {
			t.Errorf("%s is %s, want int32", path, slot.Prim)
		}
		dropped += slot.Prim.Size()
	}
	if got, want := codec.FixedSize(), layout.FixedSize-dropped; got != want {
		t.Fatalf("codec FixedSize = %d, want layout %d - %d dropped = %d", got, layout.FixedSize, dropped, want)
	}

	p := datagen.LabeledPoint{Label: -1.25, Features: make([]float64, D)}
	for i := range p.Features {
		p.Features[i] = float64(i)*1.5 + 0.25
	}
	seg := make([]byte, codec.Size(p))
	codec.Encode(seg, p)
	if got := decompose.F64(seg, layout.Scalar("label").Offset); got != p.Label {
		t.Errorf("label at its compiled offset = %v, want %v", got, p.Label)
	}
	data := layout.Array("features.data")
	if data.Count != D {
		t.Fatalf("features.data count = %d, want %d", data.Count, D)
	}
	for i, want := range p.Features {
		if got := decompose.F64(seg, data.ElemOffset(i)); got != want {
			t.Errorf("feature %d at its compiled offset = %v, want %v", i, got, want)
		}
	}
}

// TestMemoryHygieneAcrossJob: after a full WC-like job plus release, no
// pages remain in use — the lifetime-based reclamation story end to end.
func TestMemoryHygieneAcrossJob(t *testing.T) {
	ctx := engine.New(engine.Config{
		Parallelism: 2,
		Mode:        engine.ModeDeca,
		PageSize:    2048,
		SpillDir:    t.TempDir(),
	})
	words := engine.Parallelize(ctx, []string{"a", "b", "a", "c", "b", "a"}, 2)
	pairs := engine.Map(words, func(w string) decompose.Pair[string, int64] {
		return engine.KV(w, int64(1))
	})
	counts := engine.ReduceByKey(pairs, engine.PairOps[string, int64]{
		Key:      shuffle.StringKey(),
		KeyCodec: decompose.StringCodec{},
		ValCodec: decompose.Int64Codec{},
	}, func(a, b int64) int64 { return a + b })
	got, err := engine.CollectMap(counts)
	if err != nil {
		t.Fatal(err)
	}
	if got["a"] != 3 || got["b"] != 2 || got["c"] != 1 {
		t.Errorf("counts = %v", got)
	}
	ctx.Close()
	if ctx.Counters()[obs.PageBytesInUse] != 0 {
		t.Errorf("pages in use after Close: %d", ctx.Counters()[obs.PageBytesInUse])
	}
	if ctx.Counters()[obs.PageGroupsLive] != 0 {
		t.Errorf("live groups after Close: %d", ctx.Counters()[obs.PageGroupsLive])
	}
}

// TestClassificationDrivesStorageLevel: a Go type's local classification
// decides whether its records may be decomposed at all.
func TestClassificationDrivesStorageLevel(t *testing.T) {
	type fixedRec struct {
		A int64
		B float64
	}
	type varRec struct {
		Buf []int64 // non-final: Variable
	}

	fixedDesc := udt.MustDescribe(reflect.TypeOf(fixedRec{}))
	if st := udt.Classify(fixedDesc); !st.Decomposable() {
		t.Fatalf("fixedRec = %s", st)
	}
	varDesc := udt.MustDescribe(reflect.TypeOf(varRec{}))
	if st := udt.Classify(varDesc); st.Decomposable() {
		t.Fatalf("varRec = %s should not be decomposable", st)
	}
}
