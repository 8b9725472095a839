// Quickstart: generate a dataset analogue, run one workload on two
// systems over simulated clusters, and verify the outputs against the
// single-thread oracle — the smallest end-to-end tour of the library.
package main

import (
	"fmt"
	"log"
	"math"

	"graphbench/internal/blogel"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/hdfs"
	"graphbench/internal/metrics"
	"graphbench/internal/pregel"
	"graphbench/internal/sim"
	"graphbench/internal/singlethread"
)

func main() {
	// 1. Generate a Twitter analogue at 1/400,000 of the real dataset's
	// size. The graph remembers the scale, so resource accounting still
	// happens at paper scale.
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 400_000, Seed: 1})
	st := g.Stats()
	fmt.Printf("twitter analogue: %d vertices, %d edges, max degree %d\n",
		st.Vertices, st.Edges, st.MaxOutDegree)

	// 2. Register its three file formats in simulated HDFS; the engines
	// compute on g itself.
	fs := hdfs.New()
	src := datasets.SourceVertex(g, 42)
	d, err := engine.Prepare(fs, g, "data/twitter", 64, src)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run PageRank on Giraph and Blogel-V over a 16-machine cluster.
	w := engine.NewPageRank()
	for _, e := range []engine.Engine{pregel.New(), blogel.NewV()} {
		res := e.Run(sim.NewSize(16), d, w, engine.Options{})
		fmt.Printf("\n%s: %s\n", e.Name(), res.Status)
		fmt.Printf("  load %s  execute %s  save %s  overhead %s  total %s\n",
			metrics.FmtSeconds(res.Load), metrics.FmtSeconds(res.Exec),
			metrics.FmtSeconds(res.Save), metrics.FmtSeconds(res.Overhead),
			metrics.FmtSeconds(res.TotalTime()))
		fmt.Printf("  %d iterations, %s over the network, %s peak memory across the cluster\n",
			res.Iterations, metrics.FmtBytes(res.NetBytes), metrics.FmtBytes(res.MemTotal))

		// 4. Verify against the single-thread oracle.
		want, _, _ := singlethread.PageRank(g, w.Damping, w.Tolerance, 0)
		worst := 0.0
		for v := range want {
			if dd := math.Abs(res.Ranks[v] - want[v]); dd > worst {
				worst = dd
			}
		}
		fmt.Printf("  max deviation from single-thread oracle: %.2g\n", worst)
	}
}
