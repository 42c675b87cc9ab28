// Logistic regression — the paper's motivating example (Figure 1) — run
// in all three execution modes with GC statistics, showing the §6.2
// effect at small scale: identical results, very different collector
// behaviour.
package main

import (
	"fmt"
	"log"
	"os"

	"deca/internal/engine"
	"deca/internal/workloads"
)

func main() {
	dir, err := os.MkdirTemp("", "deca-logreg-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	params := workloads.LRParams{Points: 100_000, Dim: 10, Iterations: 10}
	fmt.Printf("LR: %d points, %d dims, %d iterations\n\n",
		params.Points, params.Dim, params.Iterations)

	for _, mode := range []engine.Mode{engine.ModeSpark, engine.ModeSparkSer, engine.ModeDeca} {
		res, err := workloads.LogisticRegression(workloads.Config{
			Mode:        mode,
			Parallelism: 4,
			SpillDir:    dir,
			Seed:        42,
		}, params)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s exec=%-10s gcCPU=%6.3fs gcCycles=%-4d allocObjects=%-10d cache=%5.1fMB |w|=%.6f\n",
			mode, res.Wall.Round(1e6), res.GC.GCCPUSeconds, res.GC.NumGC,
			res.GC.AllocObjects, float64(res.Counters.CacheBytes())/(1<<20), res.Checksum)
	}
	fmt.Println("\nAll three |w| values agree: the layout change is transparent (§2.3).")
}
