//go:build !race && unix

package engine

import (
	"runtime"
	"testing"

	"deca/internal/decompose"
)

// TestDecaGroupBlockAllocatesOnlyItsPages is TestDecaBuildAllocatesOnlyItsPages
// for a Deca-persisted GroupByKey output: its block is written from the
// merged group's pages (DecaGroup.WriteLists), so materializing it, the
// exchange already done, allocates the block's pages plus a constant — no
// key, list or pair per record, where draining every list into a []int64
// and re-encoding it cost 8 heap bytes a value. Manager pages are
// mappings here (memory/map_unix.go): the pages cost the Go heap only
// their entries in the group's page table, and the rest is the action's
// own constant.
func TestDecaGroupBlockAllocatesOnlyItsPages(t *testing.T) {
	codec := decompose.PairCodec[int64, []int64]{KeyCodec: decompose.Int64Codec{}, ValueCodec: decompose.Int64SliceCodec{}}
	for _, n := range []int{10_000, 100_000} {
		ctx := testCtx(t, ModeDeca)
		edges := Generate(ctx, 1, func(_ int, emit func(decompose.Pair[int64, int64])) {
			for i := range n {
				emit(KV(int64(i%(n/10)), int64(i)))
			}
		})
		links := GroupByKey(edges, int64Ops(1))
		links.Persist(Storage[decompose.Pair[int64, []int64]]{Codec: codec})
		if err := ctx.MaterializeShuffle(links.ID()); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := Materialize(links); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		blk, release, err := DecaBlockFor(links, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := blk.Count(); got != n/10 {
			t.Errorf("%d values over %d keys made a block of %d lists", n, n/10, got)
		}
		pages := blk.Group().NumPages()
		release()
		allocated := after.TotalAlloc - before.TotalAlloc
		if budget := uint64(8<<10 + 64*pages); allocated > budget {
			t.Errorf("materializing the block of %d values in %d pages allocated %d heap bytes (budget %d)", n, pages, allocated, budget)
		}
	}
}
