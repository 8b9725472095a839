// Package mapreduce implements Hadoop MapReduce (§2.4): a disk-based
// BSP data-processing framework running graph workloads as chains of
// map/shuffle/sort/reduce jobs, one job per iteration.
//
// The paper's Hadoop pathology is reproduced structurally: every
// iteration re-reads the whole graph from HDFS, shuffles both structure
// and messages across the network, sorts them, and writes everything
// back with replication — "excessive I/O with HDFS and data shuffling
// at every iteration". The payoff, also reproduced: a small, fixed
// memory footprint that never OOMs, making Hadoop the fallback when
// graphs exceed cluster memory (§5.9, §5.10).
package mapreduce

import (
	"math"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/kernel"
	"graphbench/internal/par"
	"graphbench/internal/sim"
)

// Profile is Hadoop's cost profile: 4 mappers / 2 reducers per machine,
// 30 GB granted, JVM text-record processing.
var Profile = sim.Profile{
	Name: "hadoop", Lang: "Java",
	EdgeOpsPerSec:   40e6,
	RecordCPUNs:     1500, // parse + serialize a text record
	MsgBytes:        24,   // shuffled message record
	MsgMemBytes:     0,    // disk-based: messages spill, they don't reside
	VertexBytes:     0,
	EdgeBytes:       0,
	PerMachineBase:  5 * sim.GB, // mapper/reducer JVM heaps
	Imbalance:       1.2,
	JobStartup:      18, // job setup + task launch
	JobStartupPerM:  0.12,
	PressurePenalty: 0,
}

// Hadoop is the engine.
type Hadoop struct {
	Profile sim.Profile
	// haloop-style extensions are configured by the haloop package.
	InvariantCache bool    // cache loop-invariant data on local disk
	LoopAwareSched bool    // mapper/partition affinity cuts shuffle
	ShuffleBugAt   int     // iteration at which the SHFL bug fires on >=64 machines (0: never)
	SpeedupName    string  // engine name override
	ShuffleFactor  float64 // fraction of shuffle remaining under loop-aware scheduling
}

// New returns a plain Hadoop engine.
func New() *Hadoop { return &Hadoop{Profile: Profile, ShuffleFactor: 1} }

// Name implements engine.Engine.
func (h *Hadoop) Name() string {
	if h.SpeedupName != "" {
		return h.SpeedupName
	}
	return "hadoop"
}

// jobCost is the modeled cost of one MapReduce job.
type jobCost struct {
	inputBytes   float64 // read from HDFS by mappers
	mapRecords   float64 // records processed by mappers
	interBytes   float64 // map output: spilled, shuffled, sorted
	interRecords float64
	reduceOut    float64 // bytes written back to HDFS (before replication)
	dilation     float64 // iteration-dilation on this job's fixed costs
}

// charge runs one job against the cluster.
func (h *Hadoop) charge(c *sim.Cluster, jc jobCost) error {
	p := &h.Profile
	m := float64(c.Size())
	cores := c.Config().Cores
	dil := jc.dilation
	if dil < 1 {
		dil = 1
	}

	if err := c.Advance(p.StartupSeconds(c.Size()) * dil); err != nil {
		return err
	}

	shuffle := jc.interBytes * h.shuffleFactor()
	sortCPU := jc.interRecords * math.Log2(math.Max(jc.interRecords/m, 2)) * 80e-9 / float64(cores)
	cpu := p.RecordSeconds((jc.mapRecords+jc.interRecords)/m*p.Imbalance, cores) + sortCPU/m*p.Imbalance
	// Per-machine shuffle share: 1/m of the volume, (m-1)/m of which
	// crosses the network.
	netPerMachine := shuffle / m * (m - 1) / m * p.Imbalance

	costs := make([]sim.StepCost, c.Size())
	for i := range costs {
		costs[i] = sim.StepCost{
			ComputeSeconds: cpu * dil,
			DiskReadBytes:  (jc.inputBytes*dil + jc.interBytes) / m * p.Imbalance,
			DiskWriteBytes: (jc.interBytes + jc.reduceOut*3) / m * p.Imbalance,
			NetSendBytes:   netPerMachine,
			NetRecvBytes:   netPerMachine,
		}
	}
	return c.RunStep(costs)
}

func (h *Hadoop) shuffleFactor() float64 {
	if h.LoopAwareSched && h.ShuffleFactor > 0 {
		return h.ShuffleFactor
	}
	return 1
}

// restartStartupFraction scales job startup into the overhead of
// detecting a lost task tracker and re-provisioning its slots.
const restartStartupFraction = 0.3

// jobRunner sequences the jobs of one run. Each job is charged and then
// crosses a cluster boundary (sim.Cluster.Boundary) where injected
// machine failures surface. With recovery enabled, a recoverable
// failure is survived the MapReduce way: every job's inputs are
// materialized in HDFS, so the failed job simply re-runs — no
// checkpointing machinery, just the framework's natural retry.
type jobRunner struct {
	h       *Hadoop
	c       *sim.Cluster
	recover bool
	job     int // boundary index of the next job
	costs   *engine.RecoveryCosts
}

// run charges one job and survives a recoverable boundary failure by
// re-running it from materialized inputs.
func (jr *jobRunner) run(jc jobCost) error {
	err := jr.h.charge(jr.c, jc)
	if err == nil {
		err = jr.c.Boundary(jr.job)
		jr.job++
	}
	if err == nil || !jr.recover || !sim.IsRecoverable(err) {
		return err
	}
	jr.costs.Failures++
	// Failure detection plus re-provisioning of the lost task slots.
	before := jr.c.Clock()
	if rerr := jr.c.Advance(jr.h.Profile.StartupSeconds(jr.c.Size()) * restartStartupFraction); rerr != nil {
		return rerr
	}
	jr.costs.RestartSeconds += jr.c.Clock() - before
	// Re-run the whole job from its HDFS inputs.
	before = jr.c.Clock()
	if rerr := jr.h.charge(jr.c, jc); rerr != nil {
		return rerr
	}
	jr.costs.ReplaySeconds += jr.c.Clock() - before
	return nil
}

// Run implements engine.Engine.
func (h *Hadoop) Run(c *sim.Cluster, d *engine.Dataset, w engine.Workload, opt engine.Options) *engine.Result {
	res := engine.Begin(c, h.Name(), d, w, opt)
	gr := d.Graph

	// "Load" for Hadoop is only staging: the data is already in HDFS.
	// Fixed JVM footprint for the task slots; disk-based processing
	// never grows it (§5.9's "out-of-core systems may have a role").
	res.Timed(c, &res.Load, func() error { return c.AllocAll(h.Profile.PerMachineBase) })
	res.Timed(c, &res.Exec, func() error {
		jr := &jobRunner{h: h, c: c, recover: opt.Recover, costs: &res.Costs}
		return h.iterate(c, d, gr, w, res, jr)
	})
	// Final results are the last job's reduce output; saving is folded
	// into the last job's write. Teardown:
	res.Timed(c, &res.Overhead, func() error { return c.Advance(h.Profile.StartupSeconds(c.Size()) * 0.3) })
	return res.Finish(c, res.Err)
}

// iterate drives the per-workload job chains. All workloads do real
// computation over the prepared graph; each iteration is charged as a
// full MapReduce job.
func (h *Hadoop) iterate(c *sim.Cluster, d *engine.Dataset, gr *graph.Graph, w engine.Workload, res *engine.Result, jr *jobRunner) error {
	if w.Kind == engine.Triangle {
		return h.triangles(d, gr, res, jr)
	}
	n := gr.NumVertices()
	adjBytes := float64(d.FileBytes(graph.FormatAdj))
	stateBytes := float64(n) * d.Scale * 16
	dil := d.DilationFor(w.Kind)

	// The WCC and LPA chains start with a reverse-edge job: map emits
	// both directions, reduce materializes the undirected adjacency.
	work := gr
	if w.Kind == engine.WCC || w.Kind == engine.LPA {
		if err := jr.run(jobCost{
			inputBytes:   adjBytes,
			mapRecords:   (float64(n) + float64(gr.NumEdges())) * d.Scale,
			interBytes:   2 * float64(gr.NumEdges()) * d.Scale * h.Profile.MsgBytes,
			interRecords: 2 * float64(gr.NumEdges()) * d.Scale,
			reduceOut:    2 * adjBytes,
			dilation:     1,
		}); err != nil {
			return err
		}
		adjBytes *= 2
		if w.Kind == engine.WCC {
			work = d.Undirected()
		} else {
			work = gr.Simple()
		}
	}

	// Hadoop scans and shuffles every record whether or not it changed —
	// the frontier does not shrink the job.
	values, iters, err := kernel.FullScanRounds(work, w, d.Source, func(iters int, msgs float64, changed int) error {
		res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: iters, Active: n, Updates: changed})

		// The HaLoop shuffle bug: on large clusters mapper output is
		// occasionally deleted before all reducers consume it, killing
		// the run after a few iterations (§5.10).
		if h.ShuffleBugAt > 0 && c.Size() >= 64 && iters >= h.ShuffleBugAt {
			return &sim.Failure{Status: sim.SHFL,
				Detail: "mapper output deleted before reducers consumed it"}
		}

		// One record per vertex plus one per message, into the mappers
		// and out of the shuffle.
		records := float64(n)*d.Scale + msgs*d.Scale
		jc := jobCost{
			inputBytes:   adjBytes + stateBytes,
			mapRecords:   records,
			interBytes:   msgs*d.Scale*h.Profile.MsgBytes + adjBytes, // messages + structure pass-through
			interRecords: records,
			reduceOut:    adjBytes + stateBytes,
			dilation:     dil,
		}
		if h.InvariantCache && iters > 1 {
			// HaLoop: loop-invariant adjacency is cached and indexed on
			// local disk; state is re-read from HDFS, the structure is
			// read from the local cache (cheaper, not free) and no
			// longer rides the shuffle (§2.5.1). The savings are real
			// but far from the 2x HaLoop's authors reported (§5.10).
			jc.inputBytes = stateBytes + adjBytes*0.6
			jc.interBytes = msgs * d.Scale * h.Profile.MsgBytes
			jc.reduceOut = stateBytes + adjBytes*0.3
		}
		return jr.run(jc)
	})
	// A chain that died mid-way reports the jobs it ran; a finished one
	// reports iterations at paper scale.
	res.Iterations = iters
	if err == nil {
		res.Iterations = d.DilatedIterations(w.Kind, iters)
	}
	res.SetOutputs(w.Kind, values)
	return err
}

// triangles runs degree-ordered triangle counting as a three-job chain:
// orient (map emits degree-tagged edges, reduce builds the forward
// adjacency), join (map emits each vertex's forward-neighbor pairs —
// the quadratic shuffle — and reduce probes the closing edges), and
// credit aggregation (map emits three credits per triangle, reduce sums
// per vertex). The computation is the shared forward kernel, run inline.
func (h *Hadoop) triangles(d *engine.Dataset, gr *graph.Graph, res *engine.Result, jr *jobRunner) error {
	adjBytes := float64(d.FileBytes(graph.FormatAdj))
	o, rank := graph.ForwardOrient(gr)
	n := o.NumVertices()
	oe := float64(o.NumEdges())
	stateBytes := float64(n) * d.Scale * 16

	counts, cands64, hits64, _ := kernel.ForwardTriangles(par.New(1), o, rank, nil)
	cands, hits := float64(cands64), float64(hits64)
	res.Triangles = counts
	res.Iterations = 3

	jobs := []jobCost{
		{ // orient: degree join + forward filter
			inputBytes:   adjBytes,
			mapRecords:   (float64(n) + float64(gr.NumEdges())) * d.Scale,
			interBytes:   2 * float64(gr.NumEdges()) * d.Scale * h.Profile.MsgBytes,
			interRecords: 2 * float64(gr.NumEdges()) * d.Scale,
			reduceOut:    adjBytes,
			dilation:     1,
		},
		{ // join: candidate pairs shuffled to their probing vertex
			inputBytes:   adjBytes,
			mapRecords:   (float64(n) + oe) * d.Scale,
			interBytes:   cands * d.Scale * h.Profile.MsgBytes,
			interRecords: cands * d.Scale,
			reduceOut:    stateBytes,
			dilation:     1,
		},
		{ // credits: three per triangle, summed per vertex
			inputBytes:   stateBytes,
			mapRecords:   hits * d.Scale,
			interBytes:   3 * hits * d.Scale * h.Profile.MsgBytes,
			interRecords: 3 * hits * d.Scale,
			reduceOut:    stateBytes,
			dilation:     1,
		},
	}
	for _, jc := range jobs {
		if err := jr.run(jc); err != nil {
			return err
		}
	}
	return nil
}
