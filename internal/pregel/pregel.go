// Package pregel implements Giraph (§2.1.1): the open-source Pregel.
// It is a map-only Hadoop application, so every run pays Hadoop job
// startup/teardown that grows with cluster size (§5.5, §5.7); the graph
// is loaded fully into memory with random hash edge-cut partitioning;
// computation is vertex-centric BSP with message combiners; every
// superstep touches all owned vertex partitions, which puts a floor on
// per-iteration time (Table 6).
package pregel

import (
	"graphbench/internal/bsp"
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/sim"
)

// Profile is Giraph's cost profile. Calibration (paper Tables 6-10):
// per-vertex scan cost fitted to Table 6's WRN iteration times (6 s at
// 16 machines, 3 s at 32, including the 1.3x straggler factor); the
// memory model to Table 8's cluster totals (~192 GB for Twitter at 16
// machines, growing ~6 GB per added machine).
var Profile = sim.Profile{
	Name: "giraph", Lang: "Java",
	EdgeOpsPerSec:   60e6,
	VertexScanNs:    440,
	MsgCPUNs:        600,
	MsgBytes:        12,
	VertexBytes:     300,
	EdgeBytes:       60,
	MsgMemBytes:     16,
	PerMachineBase:  6 * sim.GB,
	Imbalance:       1.3,
	SuperstepFixed:  0.1,
	JobStartup:      15,
	JobStartupPerM:  0.5,
	PressurePenalty: 4,
}

// Giraph is the engine.
type Giraph struct {
	Profile sim.Profile
}

// New returns a Giraph engine with the default profile.
func New() *Giraph { return &Giraph{Profile: Profile} }

// Name implements engine.Engine.
func (g *Giraph) Name() string { return "giraph" }

// memFactors returns the workload-specific multipliers on vertex and
// edge memory: WCC materializes reverse edges and per-vertex neighbor
// sets (§5.8), roughly doubling both.
func memFactors(w engine.Workload) (vf, ef float64) {
	if w.Kind == engine.WCC {
		return 2.0, 2.4
	}
	return 1, 1
}

// Run implements engine.Engine.
func (g *Giraph) Run(c *sim.Cluster, d *engine.Dataset, w engine.Workload, opt engine.Options) *engine.Result {
	res := engine.Begin(c, g.Name(), d, w, opt)
	prof := g.Profile
	m := c.Size()
	gr := d.Graph
	var loaded int64

	// Job startup through the Hadoop resource manager.
	res.Timed(c, &res.Overhead, func() error { return c.Advance(prof.StartupSeconds(m)) })
	// Load: read the adj file from HDFS, shuffle records to their hash
	// partition, build in-memory vertex/edge structures.
	res.Timed(c, &res.Load, func() (err error) {
		loaded, err = chargeLoad(c, &prof, d, gr, w)
		return err
	})
	// Execute. Every superstep touches all owned vertex partitions.
	res.Timed(c, &res.Exec, func() error { return bsp.RunWorkload(c, &prof, true, gr, d, w, opt, res) })
	res.Timed(c, &res.Save, func() error { return engine.SaveResults(c, d, gr.NumVertices()) })
	// Teardown: releasing containers back to Hadoop.
	res.Timed(c, &res.Overhead, func() error {
		err := c.Advance(prof.StartupSeconds(m) * 0.4)
		c.FreeAll(loaded)
		return err
	})
	return res.Finish(c, res.Err)
}

// chargeLoad charges the read+shuffle+build time and the resident
// memory of the loaded graph; it returns the per-machine bytes held
// until the run ends.
func chargeLoad(c *sim.Cluster, prof *sim.Profile, d *engine.Dataset, gr *graph.Graph, w engine.Workload) (int64, error) {
	m := c.Size()
	parse := prof.EdgeSeconds(float64(gr.NumEdges())*d.Scale/float64(m), c.Config().Cores)
	if err := c.ShuffleRead(d.FileBytes(graph.FormatAdj), parse); err != nil {
		return 0, err
	}

	vf, ef := memFactors(w)
	graphBytes := float64(gr.NumVertices())*d.Scale*prof.VertexBytes*vf +
		float64(gr.NumEdges())*d.Scale*prof.EdgeBytes*ef
	perMachineMem := int64(graphBytes/float64(m)*prof.Imbalance) + prof.PerMachineBase
	return perMachineMem, c.AllocAll(perMachineMem)
}
