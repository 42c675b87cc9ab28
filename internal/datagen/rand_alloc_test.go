//go:build !race

package datagen

import (
	"runtime"
	"testing"
)

// TestWalksReuseTheirSource: a walk gives its random source back when it
// ends, an early stop included, so the next walk allocates none — a fresh
// source is ≈ 5 KB, more than any of these walks allocates besides (the
// race detector changes allocation counts, so plain builds only).
func TestWalksReuseTheirSource(t *testing.T) {
	const d, k = 10, 8
	walks := map[string]func(){
		"WordsSeq": func() {
			for line := range WordsSeq(1, 640_000, d, 100) {
				sinkBytes = line
			}
		},
		"PointsSeq, stopped early": func() {
			for p := range PointsSeq(1, 100, d) {
				sinkF64 = p.Features
				break
			}
		},
		"VectorsSeq": func() {
			for v := range VectorsSeq(1, 100, d, k) {
				sinkF64 = v
			}
		},
		"GraphSeq": func() {
			for e := range GraphSeq(1, 1000, 100, 0.6) {
				sinkEdge = e
			}
		},
		"Rankings": func() { sinkRankings = Rankings(1, 4) },
	}
	for name, walk := range walks {
		walk()
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			walk()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 4<<10 {
			t.Errorf("%s: a second walk allocated %d bytes: it built a new random source", name, least)
		}
	}
}

var (
	sinkEdge     Edge
	sinkRankings []Ranking
)
