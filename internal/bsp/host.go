package bsp

import (
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
)

// RunWorkload is the engines' entry point to the runtime: it wires the
// workload's vertex program and the run's host options into a Config
// over the loaded graph, executes it on the cluster with random hash
// edge-cut placement, and copies the output into res. The engines that
// host the runtime (Giraph, Blogel-V, Flink Gelly) differ only in their
// cost profile and in whether a superstep scans every owned vertex
// (scanAll) or only the active ones.
func RunWorkload(c *sim.Cluster, prof *sim.Profile, scanAll bool, gr *graph.Graph,
	d *engine.Dataset, w engine.Workload, opt engine.Options, res *engine.Result) error {

	out, err := Run(c, workloadConfig(c.Size(), prof, scanAll, gr, d, w, opt))
	res.Iterations = d.DilatedIterations(w.Kind, out.Supersteps)
	res.Costs = out.Recovery
	res.Govern = out.Govern
	res.PerIteration = out.IterStats
	res.SetOutputs(w.Kind, out.Values)
	return err
}

// workloadConfig wires the §3 vertex programs into a BSP config.
func workloadConfig(m int, prof *sim.Profile, scanAll bool, gr *graph.Graph,
	d *engine.Dataset, w engine.Workload, opt engine.Options) Config {

	cfg := Config{
		Graph:           gr,
		Scale:           d.Scale,
		M:               m,
		MachineOf:       partition.EdgeCut{M: m, Seed: 7}.MachineOf,
		Profile:         prof,
		ScanAll:         scanAll,
		Shards:          opt.Shards,
		Pool:            opt.Pool,
		RecordIterStats: true,
		CheckpointEvery: opt.CheckpointInterval(),
		Direction:       opt.Direction,
		Governor:        opt.Governor,
		ShardPlan:       opt.ShardPlan,
		MemoryTier:      opt.MemoryTier,
		TimeDilation:    d.DilationFor(w.Kind),
	}
	switch w.Kind {
	case engine.PageRank:
		cfg.Program = &PageRankProgram{Damping: w.Damping}
		cfg.Combine = SumCombine
		cfg.StopDeltaBelow = w.Tolerance
		cfg.FixedSupersteps = w.MaxIterations
	case engine.WCC:
		cfg.Program = WCCProgram{}
		cfg.Combine = MinCombine
		cfg.CombineFrom = 1
		cfg.UseInNeighbors = true
	case engine.SSSP:
		cfg.Program = &SSSPProgram{Source: d.Source}
		cfg.Combine = MinCombine
	case engine.KHop:
		cfg.Program = &KHopProgram{Source: d.Source, K: w.K}
		cfg.Combine = MinCombine
	case engine.Triangle:
		// The degree-ordered orientation replaces the loaded graph so
		// candidate message volume matches every other engine's; credits
		// (sent from superstep 1 on) may be sum-combined.
		oriented, rank := graph.ForwardOrient(gr)
		cfg.Graph = oriented
		cfg.Program = &TriangleProgram{Rank: rank}
		cfg.Combine = SumCombine
		cfg.CombineFrom = 1
	case engine.LPA:
		// Synchronous rounds over the undirected simple view; no
		// combiner — label frequencies matter.
		cfg.Graph = gr.Simple()
		cfg.Program = &LPAProgram{Rounds: w.LPAIterations()}
	}
	if opt.DisableCombiner {
		cfg.Combine = nil
	}
	if w.MaxIterations > 0 && w.Kind != engine.PageRank && w.Kind != engine.LPA {
		cfg.MaxSupersteps = w.MaxIterations
	}
	return cfg
}
