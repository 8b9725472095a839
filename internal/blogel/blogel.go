// Package blogel implements Blogel (§2.1.3, §2.3): the paper's overall
// winner. Blogel-V is vertex-centric BSP over MPI — no Hadoop/Spark
// infrastructure, C++ speeds, a small memory footprint (the only system
// that processes ClueWeb, Table 7), and active-vertex-only supersteps.
// Blogel-B is block-centric: Graph Voronoi Diagram partitioning groups
// vertices into connected blocks, serial algorithms run inside blocks,
// and BSP synchronizes at block granularity — collapsing the iteration
// count on high-diameter graphs, at the price of a partitioning phase
// whose HDFS round-trip dominates end-to-end time (§5.1, Figure 3) and
// whose MPI aggregation overflows on billion-vertex datasets (WRN,
// ClueWeb).
package blogel

import (
	"graphbench/internal/bsp"
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/hdfs"
	"graphbench/internal/sim"
)

// Profile is Blogel's cost profile (both modes): C++ and MPI, lean
// memory, minimal per-superstep coordination.
var Profile = sim.Profile{
	Name: "blogel", Lang: "C++",
	EdgeOpsPerSec:   120e6,
	VertexScanNs:    100,
	MsgCPUNs:        120,
	MsgBytes:        12,
	VertexBytes:     100,
	EdgeBytes:       40,
	MsgMemBytes:     12,
	PerMachineBase:  1 * sim.GB,
	Imbalance:       1.2,
	SuperstepFixed:  0.08,
	JobStartup:      1.5,
	JobStartupPerM:  0.02,
	PressurePenalty: 2,
}

// maxInt32 is the MPI buffer-offset limit behind Blogel-B's GVD
// aggregation crash (§5.1): offsets into the gather buffer are C ints.
const maxInt32 = 1<<31 - 1

// VEngine is Blogel-V.
type VEngine struct {
	Profile sim.Profile
}

// NewV returns Blogel-V with the default profile.
func NewV() *VEngine { return &VEngine{Profile: Profile} }

// Name implements engine.Engine.
func (e *VEngine) Name() string { return "blogel-v" }

// Run implements engine.Engine.
func (e *VEngine) Run(c *sim.Cluster, d *engine.Dataset, w engine.Workload, opt engine.Options) *engine.Result {
	res := engine.Begin(c, e.Name(), d, w, opt)
	prof := e.Profile
	var gr *graph.Graph
	var loaded int64

	res.Timed(c, &res.Overhead, func() error { return c.Advance(prof.StartupSeconds(c.Size())) })
	res.Timed(c, &res.Load, func() (err error) {
		gr, loaded, err = load(c, &prof, d, w)
		return err
	})
	// Blogel touches only active vertices.
	res.Timed(c, &res.Exec, func() error { return bsp.RunWorkload(c, &prof, false, gr, d, w, opt, res) })
	res.Timed(c, &res.Save, func() error { return save(c, d, gr, loaded) })
	return res.Finish(c, res.Err)
}

// save writes the results and, once they are out, releases the loaded
// graph. Shared by both modes.
func save(c *sim.Cluster, d *engine.Dataset, gr *graph.Graph, loaded int64) error {
	if err := engine.SaveResults(c, d, gr.NumVertices()); err != nil {
		return err
	}
	c.FreeAll(loaded)
	return nil
}

// load models reading the adj-long file (§4.3: Blogel needs every vertex
// to have a line so in-edge-only vertices exist): the chunk-parallel
// C++ HDFS read (§4.3), the hash shuffle, and the resident graph
// memory; it returns the graph and the per-machine bytes held until
// save. Shared by both modes.
func load(c *sim.Cluster, prof *sim.Profile, d *engine.Dataset, w engine.Workload) (*graph.Graph, int64, error) {
	m := c.Size()
	gr := d.Graph
	file, err := d.Open(graph.FormatAdjLong)
	if err != nil {
		return nil, 0, err
	}
	parse := prof.EdgeSeconds(float64(gr.NumEdges())*d.Scale/float64(m), c.Config().Cores)
	if err := c.ShuffleRead(file.PaperBytes, parse); err != nil {
		return nil, 0, err
	}
	// Single-chunk files serialize the read on one machine (§4.3).
	if file.Chunks < m {
		extra := hdfs.ParallelReadSeconds(file.PaperBytes, m, file.Chunks, c.Config().DiskBW) -
			float64(file.PaperBytes)/float64(m)/c.Config().DiskBW
		if extra > 0 {
			if err := c.Advance(extra); err != nil {
				return nil, 0, err
			}
		}
	}

	vf, ef := 1.0, 1.0
	if w.Kind == engine.WCC {
		// Reverse-edge discovery grows edge storage (§5.8) — but lean
		// enough that ClueWeb WCC still fits at 128 machines alongside
		// the first superstep's message buffers (Table 7).
		vf, ef = 1.5, 1.45
	}
	memBytes := float64(gr.NumVertices())*d.Scale*prof.VertexBytes*vf +
		float64(gr.NumEdges())*d.Scale*prof.EdgeBytes*ef
	per := int64(memBytes/float64(m)*prof.Imbalance) + prof.PerMachineBase
	return gr, per, c.AllocAll(per)
}
