// Planner: the adaptive engine/shard planner as a runnable example.
// For a few (dataset, workload) cells it asks the planner to pick the
// system and run configuration at a 16-machine budget, executes the
// decision, and prints the full audit trace — profile, every scored
// candidate, the chosen configuration — followed by what the run
// realized.
package main

import (
	"fmt"
	"os"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/metrics"
	"graphbench/internal/sim"
)

func main() {
	r := core.NewRunner(400_000, 1)
	defer r.Close()
	fmt.Println("adaptive planning: auto-selected configurations at 16 machines")

	cells := []struct {
		dataset datasets.Name
		kind    engine.Kind
	}{
		{datasets.Twitter, engine.PageRank}, // power-law, shallow: weighted shards
		{datasets.Twitter, engine.Triangle}, // quadratic fan-out, push-only
		{datasets.WRN, engine.SSSP},         // huge diameter: uniform shards, no pull
	}
	for _, c := range cells {
		res, dec, err := r.TryRunAuto(nil, core.FaultOpts{}, c.dataset, c.kind, 16)
		if err != nil {
			fmt.Fprintln(os.Stderr, "planner example:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(dec.Trace())
		if res.Status == sim.OK {
			fmt.Printf("ran %s: %s modeled, %s network\n",
				res.System, metrics.FmtSeconds(res.TotalTime()), metrics.FmtBytes(res.NetBytes))
		} else {
			fmt.Printf("ran %s: %s\n", res.System, res.Status)
		}
	}
}
