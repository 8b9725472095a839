// Package gas implements GraphLab/PowerGraph (§2.1.2, §2.2): the
// Gather-Apply-Scatter engine over vertex-cut (edge-disjoint)
// partitioning with vertex mirrors, in both synchronous and
// asynchronous modes.
//
// Mechanics reproduced from the paper:
//   - vertex-cut partitioning with Random and Auto (Grid/PDS/Oblivious)
//     strategies and their replication factors (Table 4, §4.4.1);
//   - two cores per machine reserved for communication by default,
//     with the all-cores trade-off of Figure 1;
//   - tolerance vs fixed-iteration stopping, and approximate PageRank
//     where converged vertices drop out (§5.2, Figure 4);
//   - no self-edge support: self-edges are dropped at load, so PageRank
//     values on graphs containing them are slightly off (§3.1.1);
//   - WCC needs no reverse-edge pass (edges are visible from both ends)
//     at the price of a larger memory footprint (§3.2);
//   - the asynchronous engine's distributed-lock memory accumulation
//     that grows with cluster size and OOMs PageRank on WRN at 128
//     machines (§5.3, Figure 10).
package gas

import (
	"fmt"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/hdfs"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
)

// Profile is GraphLab's cost profile: C++ speeds, MPI startup, two of
// four cores reserved for communication.
var Profile = sim.Profile{
	Name: "graphlab", Lang: "C++",
	EdgeOpsPerSec:   120e6,
	VertexScanNs:    150,
	MsgCPUNs:        150,
	MsgBytes:        12,
	VertexBytes:     300, // per replica: value + gather state + mirror bookkeeping
	EdgeBytes:       80,  // edges visible from both ends (§3.2)
	MsgMemBytes:     16,
	PerMachineBase:  2 * sim.GB,
	Imbalance:       1.15,
	SuperstepFixed:  0.2,
	JobStartup:      2,
	JobStartupPerM:  0.05,
	PressurePenalty: 3,
	ComputeCores:    2, // default: 2 compute + 2 communication (Figure 1)
}

// asyncLockBytesPerUpdate is the modeled distributed-locking footprint
// accumulated per vertex update per machine in asynchronous mode,
// proportional to cluster size: more machines mean more outstanding
// remote locks per update (§5.3's "unexpected" WRN OOM at 128).
const asyncLockBytesPerUpdate = 0.06

// asyncSlowdown is the lock-contention multiplier on asynchronous
// compute time (§5.3: async PageRank is typically slower than sync).
const asyncSlowdown = 1.8

// GraphLab is the engine.
type GraphLab struct {
	Profile sim.Profile
}

// New returns a GraphLab engine with the default profile.
func New() *GraphLab { return &GraphLab{Profile: Profile} }

// Name implements engine.Engine.
func (g *GraphLab) Name() string { return "graphlab" }

// Variant returns the paper's run label, e.g. "GL-S-R-T" for
// synchronous, random partitioning, tolerance stopping.
func Variant(opt engine.Options, w engine.Workload) string {
	mode, part, stop := "S", "R", "T"
	if opt.Async {
		mode = "A"
	}
	if opt.Partitioning == "auto" {
		part = "A"
	}
	if w.MaxIterations > 0 {
		stop = "I"
	}
	return fmt.Sprintf("GL-%s-%s-%s", mode, part, stop)
}

// Run implements engine.Engine.
func (g *GraphLab) Run(c *sim.Cluster, d *engine.Dataset, w engine.Workload, opt engine.Options) *engine.Result {
	res := engine.Begin(c, g.Name(), d, w, opt)
	prof := g.Profile
	if opt.UseAllCores && !opt.Async {
		// Figure 1: synchronous mode benefits from computing on all
		// four cores; asynchronous mode cannot, because its vertices
		// compute and communicate at the same time (handled as extra
		// contention in runAsync).
		prof.ComputeCores = 0
	}
	m := c.Size()
	var gr *graph.Graph
	var vc *partition.VertexCut
	var loaded int64

	// MPI startup: no Hadoop/Spark infrastructure (§5.7).
	res.Timed(c, &res.Overhead, func() error { return c.Advance(prof.StartupSeconds(m)) })
	// Load: parallel chunked HDFS read (C++ client: one thread per
	// chunk, §4.3), self-edge drop, vertex-cut partitioning, mirrors.
	res.Timed(c, &res.Load, func() (err error) {
		gr = d.Graph.WithoutSelfEdges() // §3.1.1: GraphLab cannot represent self-edges
		kind := partitionKind(opt, m)
		// The cut is a function of the fixture, the strategy and the
		// machine count: one slot per strategy, rebuilt when m changes.
		vc = engine.View(d, kind, m, func() *partition.VertexCut {
			return partition.BuildVertexCut(gr, m, kind, 7)
		})
		res.ReplicationFactor = vc.ReplicationFactor()
		loaded, err = g.chargeLoad(c, &prof, d, gr, vc, kind)
		return err
	})
	res.Timed(c, &res.Exec, func() error {
		ex := &execution{
			cluster: c, prof: &prof, d: d, g: gr, vc: vc, w: w, opt: opt,
			res: res,
		}
		if opt.Async && w.Kind == engine.PageRank {
			return ex.runAsync()
		}
		return ex.runSync()
	})
	res.Timed(c, &res.Save, func() error {
		if err := engine.SaveResults(c, d, gr.NumVertices()); err != nil {
			return err
		}
		c.FreeAll(loaded)
		return nil
	})
	return res.Finish(c, res.Err)
}

func partitionKind(opt engine.Options, m int) partition.VertexCutKind {
	if opt.Partitioning == "auto" {
		return partition.AutoKind(m)
	}
	return partition.VCRandom
}

// chargeLoad charges HDFS read, partitioning CPU (Oblivious is far more
// expensive than the constrained hashes — the load-time cliff of §5.4),
// and the replica-weighted resident memory.
func (g *GraphLab) chargeLoad(c *sim.Cluster, prof *sim.Profile, d *engine.Dataset,
	gr *graph.Graph, vc *partition.VertexCut, kind partition.VertexCutKind) (int64, error) {

	m := c.Size()
	file, err := d.Open(graph.FormatAdj)
	if err != nil {
		return 0, err
	}
	readSec := hdfs.ParallelReadSeconds(file.PaperBytes, m, file.Chunks, c.Config().DiskBW)

	// Partitioning CPU per edge, by strategy.
	perEdgeNs := 15.0
	switch kind {
	case partition.VCGrid, partition.VCPDS:
		perEdgeNs = 30
	case partition.VCOblivious:
		perEdgeNs = 220 // greedy placement scans replica sets
	}
	edges := float64(gr.NumEdges()) * d.Scale
	partSec := edges * perEdgeNs * 1e-9 / float64(m*c.Config().Cores)

	// Mirror setup traffic: each replica beyond the master is announced.
	replicas := float64(vc.TotalReplicas()) * d.Scale
	netBytes := (replicas * 24) / float64(m)

	if err := c.UniformStep(sim.StepCost{
		ComputeSeconds: partSec, // the read is charged as disk
		DiskReadBytes:  float64(file.PaperBytes) / float64(m),
		NetSendBytes:   netBytes,
		NetRecvBytes:   netBytes,
	}); err != nil {
		return 0, err
	}
	// The single-reader penalty when the file is one chunk (§4.3).
	if file.Chunks < m {
		if err := c.Advance(readSec - float64(file.PaperBytes)/float64(m)/c.Config().DiskBW); err != nil {
			return 0, err
		}
	}

	memBytes := replicas*prof.VertexBytes + float64(gr.NumEdges())*d.Scale*prof.EdgeBytes
	perMachine := int64(memBytes/float64(m)*prof.Imbalance) + prof.PerMachineBase
	return perMachine, c.AllocAll(perMachine)
}
