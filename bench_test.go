package deca_test

import (
	"os"
	"strconv"
	"testing"

	"deca/internal/bench"
	"deca/internal/workloads"
)

// Each benchmark regenerates one table or figure of the paper's
// evaluation and logs the paper-style report (visible with -v). Dataset
// scale defaults to a quick 0.1 for the benchmark harness; set
// DECA_BENCH_SCALE=1 for the full laptop-scale runs that EXPERIMENTS.md
// records, or use cmd/deca-bench directly.
func benchScale() float64 {
	if s := os.Getenv("DECA_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.1
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := bench.Options{Scale: benchScale(), Base: workloads.Config{SpillDir: b.TempDir(), Parallelism: 4}}
	for i := 0; i < b.N; i++ {
		rep, err := exp.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + rep.String())
		}
	}
}

func BenchmarkFig8aWCLifetime(b *testing.B)           { runExperiment(b, "fig8a") }
func BenchmarkFig8bWordCount(b *testing.B)            { runExperiment(b, "fig8b") }
func BenchmarkFig9aLRLifetime(b *testing.B)           { runExperiment(b, "fig9a") }
func BenchmarkFig9bLogisticRegression(b *testing.B)   { runExperiment(b, "fig9b") }
func BenchmarkFig9cKMeans(b *testing.B)               { runExperiment(b, "fig9c") }
func BenchmarkFig9dHighDim(b *testing.B)              { runExperiment(b, "fig9d") }
func BenchmarkFig10aPageRank(b *testing.B)            { runExperiment(b, "fig10a") }
func BenchmarkFig10bConnectedComponents(b *testing.B) { runExperiment(b, "fig10b") }
func BenchmarkTable3GCReduction(b *testing.B)         { runExperiment(b, "table3") }
func BenchmarkTable4GCTuning(b *testing.B)            { runExperiment(b, "table4") }
func BenchmarkTable5Micro(b *testing.B)               { runExperiment(b, "table5") }
func BenchmarkTable6SQL(b *testing.B)                 { runExperiment(b, "table6") }
