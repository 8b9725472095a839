// Package graphx implements GraphX on Spark (§2.5.2): a property graph
// of vertex and edge RDDs with vertex-cut partitioning and a Pregel API
// in which every iteration is several Spark stages (message generation
// over the edge RDD, aggregation, vertex join). GraphX inherits Spark's
// overheads — job scheduling, shuffles, long RDD lineages, and the
// partition placement skew — which make it the slowest native graph
// system in the study and unable to finish high-iteration workloads
// (§5.6).
package graphx

import (
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/kernel"
	"graphbench/internal/par"
	"graphbench/internal/partition"
	"graphbench/internal/rdd"
	"graphbench/internal/sim"
)

// Profile is GraphX's cost profile (Scala on the JVM, Spark runtime).
var Profile = sim.Profile{
	Name: "graphx", Lang: "Scala",
	EdgeOpsPerSec:   50e6,
	RecordCPUNs:     800,
	MsgBytes:        16,
	VertexBytes:     120,        // per replica in the vertex RDD
	EdgeBytes:       90,         // edge RDD entry
	PerMachineBase:  8 * sim.GB, // executor + daemon heaps
	Imbalance:       1.15,
	JobStartup:      4,
	JobStartupPerM:  0.08,
	PressurePenalty: 12,
}

// lineageBytesPerVertexIter is the modeled lineage retention per vertex
// per (paper-scale) iteration: RDD metadata plus cached shuffle blocks
// that fault tolerance keeps alive (§5.6).
const lineageBytesPerVertexIter = 0.04

// stagesPerIteration is how many Spark stages one Pregel iteration
// spans ("every iteration consists of multiple Spark jobs").
const stagesPerIteration = 3

// rescheduleStartupFraction scales Spark startup into the overhead of
// detecting a lost executor and rescheduling its partitions.
const rescheduleStartupFraction = 0.2

// GraphX is the engine.
type GraphX struct {
	Profile sim.Profile
}

// New returns a GraphX engine with the default profile.
func New() *GraphX { return &GraphX{Profile: Profile} }

// Name implements engine.Engine.
func (g *GraphX) Name() string { return "graphx" }

// DefaultPartitions returns GraphX's default partition count for the
// dataset: the number of HDFS blocks of its edge-format file (§4.4.3).
func DefaultPartitions(d *engine.Dataset) int {
	f, err := d.Open(graph.FormatEdge)
	if err != nil {
		return 1
	}
	return f.Blocks()
}

// TunedPartitions returns the paper's tuned partition count (Table 5).
func TunedPartitions(d *engine.Dataset, machines int) int {
	return partition.TunedPartitions(DefaultPartitions(d), machines*sim.CoresPerMachine)
}

// Run implements engine.Engine.
func (g *GraphX) Run(c *sim.Cluster, d *engine.Dataset, w engine.Workload, opt engine.Options) *engine.Result {
	res := engine.Begin(c, g.Name(), d, w, opt)
	prof := g.Profile
	m := c.Size()

	parts := opt.NumPartitions
	if parts <= 0 {
		parts = DefaultPartitions(d)
	}
	sc := rdd.NewContext(c, &prof, d.Scale, parts, 17)
	gr := d.Graph
	var loaded int64

	// Spark standalone startup.
	res.Timed(c, &res.Overhead, func() error { return c.Advance(prof.StartupSeconds(m)) })
	// Load: read the edge-format file, build vertex and edge RDDs with
	// vertex-cut partitioning.
	res.Timed(c, &res.Load, func() (err error) {
		vc := partition.BuildVertexCut(gr, m, partition.VCRandom, 7)
		res.ReplicationFactor = vc.ReplicationFactor()
		loaded, err = g.chargeLoad(c, sc, d, gr, vc)
		return err
	})
	// Execute the Pregel iterations; the lineage goes when they end.
	res.Timed(c, &res.Exec, func() error {
		defer sc.ReleaseLineage()
		return g.pregelLoop(sc, d, gr, w, opt, res)
	})
	// Save: write the result RDD to HDFS.
	res.Timed(c, &res.Save, func() error {
		defer c.FreeAll(loaded)
		return sc.Checkpoint(float64(gr.NumVertices()) * 16)
	})
	return res.Finish(c, res.Err)
}

func (g *GraphX) chargeLoad(c *sim.Cluster, sc *rdd.Context, d *engine.Dataset, gr *graph.Graph, vc *partition.VertexCut) (int64, error) {
	file, err := d.Open(graph.FormatEdge)
	if err != nil {
		return 0, err
	}
	m := float64(c.Size())
	// Read + parse the edge file as one stage, then a shuffle stage to
	// build the partitioned property graph.
	if err := c.UniformStep(sim.StepCost{DiskReadBytes: float64(file.PaperBytes) / m}); err != nil {
		return 0, err
	}
	if err := sc.RunStage(rdd.StageCost{
		Records:      float64(gr.NumEdges()),
		ShuffleBytes: float64(gr.NumEdges()) * g.Profile.EdgeBytes * 0.3,
	}); err != nil {
		return 0, err
	}

	memBytes := float64(vc.TotalReplicas())*d.Scale*g.Profile.VertexBytes +
		float64(gr.NumEdges())*d.Scale*g.Profile.EdgeBytes
	per := int64(memBytes/m*g.Profile.Imbalance) + g.Profile.PerMachineBase
	return per, c.AllocAll(per)
}

// pregelLoop performs the real computation (identical algorithms to the
// other systems) while charging each iteration as Spark stages plus
// lineage growth.
func (g *GraphX) pregelLoop(sc *rdd.Context, d *engine.Dataset, gr *graph.Graph, w engine.Workload, opt engine.Options, res *engine.Result) error {
	if w.Kind == engine.Triangle {
		return g.triangleStages(sc, d, gr, opt, res)
	}
	n := gr.NumVertices()
	dil := d.DilationFor(w.Kind)
	work := gr
	switch w.Kind {
	case engine.WCC:
		work = d.Undirected()
	case engine.LPA:
		work = gr.Simple()
	}

	lastCkpt := 0
	values, iters, err := kernel.FullScanRounds(work, w, d.Source, func(iters int, msgs float64, changed int) error {
		// Charge the iteration: GraphX joins the full vertex RDD and
		// scans the full edge RDD every iteration regardless of how
		// small the frontier is or how few labels still change.
		perStage := rdd.StageCost{
			Records:      (float64(n) + float64(work.NumEdges())) / stagesPerIteration,
			ShuffleBytes: (msgs*g.Profile.MsgBytes + float64(n)*8) / stagesPerIteration,
			Dilation:     dil,
		}
		iterStart := sc.Cluster.Clock()
		var stageErr error
		for s := 0; s < stagesPerIteration; s++ {
			if stageErr = sc.RunStage(perStage); stageErr != nil {
				break
			}
		}
		res.PerIteration = append(res.PerIteration, engine.IterStat{
			Iteration: iters, Active: n, Updates: changed,
			Seconds: (sc.Cluster.Clock() - iterStart) / dil,
		})
		if stageErr != nil {
			return stageErr
		}
		if opt.CheckpointEvery > 0 && iters%opt.CheckpointEvery == 0 {
			stageErr = sc.Checkpoint(float64(n)*16 + float64(work.NumEdges())*12)
			if stageErr == nil {
				lastCkpt = iters
			}
		} else {
			stageErr = sc.ExtendLineage(int64(float64(n) * d.Scale * lineageBytesPerVertexIter * dil / float64(sc.Cluster.Size())))
		}
		if stageErr != nil {
			return stageErr
		}
		if err := sc.Cluster.Boundary(iters - 1); err != nil {
			if opt.Recover && sim.IsRecoverable(err) {
				return g.recoverPartition(sc, (iters-lastCkpt)*stagesPerIteration, perStage, &res.Costs)
			}
			return err
		}
		return nil
	})
	res.Iterations = d.DilatedIterations(w.Kind, iters)
	res.SetOutputs(w.Kind, values)
	return err
}

// recoverPartition survives a lost machine the Spark way: the dead
// executor's partitions are rescheduled onto the survivors and
// recomputed from lineage — re-running the given number of stages'
// worth of work at the lost partition's 1/m share. When stages is zero
// or less the lineage was just truncated by a checkpoint, and the
// partitions are read back from the replicated checkpoint instead of
// recomputed. Costs accumulate into the run's RecoveryCosts.
func (g *GraphX) recoverPartition(sc *rdd.Context, stages int, perStage rdd.StageCost, costs *engine.RecoveryCosts) error {
	costs.Failures++
	m := float64(sc.Cluster.Size())
	before := sc.Cluster.Clock()
	if err := sc.Cluster.Advance(g.Profile.StartupSeconds(sc.Cluster.Size()) * rescheduleStartupFraction); err != nil {
		return err
	}
	costs.RestartSeconds += sc.Cluster.Clock() - before

	replay := rdd.StageCost{
		Records:      perStage.Records * float64(stages) / m,
		ShuffleBytes: perStage.ShuffleBytes * float64(stages) / m,
		Dilation:     perStage.Dilation,
	}
	if stages <= 0 {
		replay = rdd.StageCost{Records: perStage.Records / m}
	}
	before = sc.Cluster.Clock()
	err := sc.RunStage(replay)
	costs.ReplaySeconds += sc.Cluster.Clock() - before
	return err
}

// triangleStages runs degree-ordered triangle counting as three Spark
// stage groups over the edge RDD: orientation (degree join + filter),
// candidate generation + closing-edge join (the quadratic shuffle), and
// credit aggregation back onto the vertex RDD. GraphX's triplet view
// makes the join explicit; the computation is the shared forward kernel,
// run inline.
func (g *GraphX) triangleStages(sc *rdd.Context, d *engine.Dataset, gr *graph.Graph, opt engine.Options, res *engine.Result) error {
	o, rank := graph.ForwardOrient(gr)
	n := o.NumVertices()
	counts, cands64, hits64, _ := kernel.ForwardTriangles(par.New(1), o, rank, nil)
	cands, hits := float64(cands64), float64(hits64)
	res.Triangles = counts
	res.Iterations = 1
	res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: 1, Active: n, Updates: int(hits)})

	stages := []rdd.StageCost{
		{ // orientation: degree join over the edge RDD
			Records:      float64(gr.NumEdges()) + float64(n),
			ShuffleBytes: float64(gr.NumEdges()) * g.Profile.MsgBytes,
		},
		{ // candidate pairs joined against the oriented edge RDD
			Records:      float64(o.NumEdges()) + cands,
			ShuffleBytes: cands * g.Profile.MsgBytes,
		},
		{ // credit aggregation onto the vertex RDD
			Records:      3*hits + float64(n),
			ShuffleBytes: 3*hits*g.Profile.MsgBytes + float64(n)*8,
		},
	}
	for s, st := range stages {
		if err := sc.RunStage(st); err != nil {
			return err
		}
		if err := sc.Cluster.Boundary(s); err != nil {
			if opt.Recover && sim.IsRecoverable(err) {
				// Lineage reaches back to the load: replay all stages so
				// far at the lost partition's share.
				if rerr := g.recoverPartition(sc, s+1, st, &res.Costs); rerr != nil {
					return rerr
				}
				continue
			}
			return err
		}
	}
	return sc.ExtendLineage(int64(float64(n) * d.Scale * lineageBytesPerVertexIter / float64(sc.Cluster.Size())))
}
