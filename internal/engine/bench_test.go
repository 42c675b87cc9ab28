package engine

import (
	"testing"

	"deca/internal/decompose"
)

// Exchange benchmarks: the reduce-side shuffle path end to end — map
// buffers, transport registration, prefetch pipeline, merge — Deca's
// stage → fold against the Object sinks' drain/re-Put, and pipelined vs
// sequential fetch.

func benchExchange(b *testing.B, mode Mode, fetchWorkers int, group bool) {
	b.Helper()
	var pairs []decompose.Pair[int64, int64]
	for i := int64(0); i < 40_000; i++ {
		pairs = append(pairs, KV(i%4096, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := New(Config{
			NumExecutors: 4,
			Parallelism:  2,
			Mode:         mode,
		})
		ctx.fetchWorkers = fetchWorkers
		d := Parallelize(ctx, pairs, 8)
		b.StartTimer()
		var err error
		if group {
			_, err = CollectMap(GroupByKey(d, int64Ops(4)))
		} else {
			_, err = CollectMap(ReduceByKey(d, int64Ops(4), func(x, y int64) int64 { return x + y }))
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ctx.Close()
		b.StartTimer()
	}
}

func BenchmarkExchangeDecaGroup(b *testing.B)         { benchExchange(b, ModeDeca, 4, true) }
func BenchmarkExchangeDecaAgg(b *testing.B)           { benchExchange(b, ModeDeca, 4, false) }
func BenchmarkExchangeDecaSingleFetcher(b *testing.B) { benchExchange(b, ModeDeca, 1, true) }
func BenchmarkExchangeSparkGroup(b *testing.B)        { benchExchange(b, ModeSpark, 4, true) }
func BenchmarkExchangeSparkAgg(b *testing.B)          { benchExchange(b, ModeSpark, 4, false) }
