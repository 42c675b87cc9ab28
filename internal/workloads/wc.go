package workloads

import (
	"strings"
	"unsafe"

	"deca/internal/datagen"
	"deca/internal/decompose"
	"deca/internal/engine"
	"deca/internal/serial"
	"deca/internal/shuffle"
)

// WCParams sizes a WordCount run (§6.1): the paper varies total text
// volume and the number of distinct keys, because the shuffle hash table
// scales with the key count.
type WCParams struct {
	DistinctKeys int
	WordsPerLine int
	Lines        int
}

// WordCount runs the two-stage WC job: text → (word, 1) pairs → eager
// hash aggregation (the Tuple2 population of Figure 8(a)) → counts. The
// checksum folds counts so all modes can be compared exactly.
func WordCount(cfg Config, params WCParams) (Result, error) {
	return run("WordCount", cfg, PlanSpec{Workload: "wc", WC: params}, wcBody(cfg, params))
}

// wcBody is the WC dataflow itself, shared between WordCount and tests
// that need to drive the job against a context they hold open (the plan
// a follower mirrors is this exact program, so both sides must run the
// same body).
func wcBody(cfg Config, params WCParams) func(ctx *engine.Context) (float64, error) {
	return func(ctx *engine.Context) (float64, error) {
		cfg := cfg.withDefaults()
		linesPerPart := max(params.Lines/cfg.Partitions, 1)
		lines := engine.Generate(ctx, cfg.Partitions, func(p int, emit func(string)) {
			for line := range datagen.WordsSeq(cfg.Seed+int64(p), params.DistinctKeys, params.WordsPerLine, linesPerPart) {
				if cfg.Mode == engine.ModeDeca { // lent for one emit: every Deca Put copies its key into container memory
					emit(unsafe.String(unsafe.SliceData(line), len(line)))
				} else { // an object hash map keeps its keys: a string per line, as Spark's text reader allocates
					emit(string(line))
				}
			}
		})
		pairs := engine.FlatMap(lines, func(line string, emit func(decompose.Pair[string, int64])) {
			start := 0
			for i := 0; i <= len(line); i++ {
				if i == len(line) || line[i] == ' ' {
					if i > start {
						emit(engine.KV(line[start:i], int64(1)))
					}
					start = i + 1
				}
			}
		})
		counts := engine.ReduceByKey(pairs, engine.PairOps[string, int64]{
			Key:      shuffle.StringKey(),
			KeySer:   serial.Str{},
			ValSer:   serial.Int64{},
			KeyCodec: decompose.StringCodec{},
			ValCodec: decompose.Int64Codec{},
			EntrySize: func(k string, _ int64) int {
				// map bucket + string header/content + boxed long.
				return 48 + len(k)
			},
		}, func(a, b int64) int64 { return a + b })

		// Checksum: Σ count·(1 + len(word) mod 7) detects count corruption
		// and key corruption that changes a word's length; a key garbled
		// at the same length (every generated word is 8 bytes) passes.
		// ROADMAP 17(a)'s key-bound fold is the checksum that sees keys.
		sum, _, err := engine.Reduce(
			engine.Map(counts, func(kv decompose.Pair[string, int64]) float64 {
				return float64(kv.Value) * float64(1+len(strings.TrimSpace(kv.Key))%7)
			}),
			func(a, b float64) float64 { return a + b },
		)
		return sum, err
	}
}
