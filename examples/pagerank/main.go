// PageRank over a generated power-law graph in Spark and Deca modes:
// grouped shuffle to build the cached adjacency lists (the Figure 7(b)
// partially-decomposable hand-off), then an aggregated shuffle per
// iteration whose buffers are released as iterations retire.
package main

import (
	"fmt"
	"log"
	"os"

	"deca/internal/engine"
	"deca/internal/workloads"
)

func main() {
	dir, err := os.MkdirTemp("", "deca-pagerank-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	params := workloads.GraphParams{
		Vertices:   20_000,
		Edges:      150_000,
		Skew:       0.6,
		Iterations: 5,
	}
	fmt.Printf("PageRank: %d vertices, %d edges, %d iterations\n\n",
		params.Vertices, params.Edges, params.Iterations)

	for _, mode := range []engine.Mode{engine.ModeSpark, engine.ModeDeca} {
		res, err := workloads.PageRank(workloads.Config{
			Mode:            mode,
			Parallelism:     4,
			StorageFraction: 0.4, // the paper's 40% cache share for graph jobs
			SpillDir:        dir,
			Seed:            7,
		}, params)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s exec=%-10s gcCPU=%6.3fs cache=%6.2fMB Σrank=%.2f\n",
			mode, res.Wall.Round(1e6), res.GC.GCCPUSeconds,
			float64(res.Counters.CacheBytes())/(1<<20), res.Checksum)
	}
}
