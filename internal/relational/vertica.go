// Package relational implements the Vertica approach of §2.6: graphs as
// edge and vertex tables in a shared-nothing columnar store, workloads
// as iterated join + aggregate queries, with the paper's two
// optimizations — replacing the vertex table wholesale instead of
// updating in place (sequential instead of random I/O), and keeping
// traversal frontiers in an active-vertex temporary table.
//
// The values an iteration's query would produce come from the kernels
// every full-scan system shares (internal/kernel); this package is the
// cost of producing them relationally. Costs are charged per operator:
// projection scans from disk (Vertica's I/O wait, Figure 13a) and the
// vectorized join/aggregate CPU over the scanned rows, re-segmentation
// shuffles for joins and group-bys (Figure 13c: network grows with the
// cluster) over the build side's rows — every edge row for PageRank and
// LPA, the active-vertex rows for traversals —, the replaced vertex
// table's write, and temp-table create/swap catalog work per iteration
// — the overheads behind §5.11's finding that Vertica is not
// competitive and falls further behind as the cluster grows. Only the
// triangle query keeps its own executor (TriangleSelfJoin): its e1⋈e2
// intermediate is a different plan's cost than the forward kernel's
// candidate pairs.
package relational

import (
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/kernel"
	"graphbench/internal/sim"
)

// Profile is Vertica's cost profile: fast vectorized C++ execution over
// disk-resident projections, with a small memory footprint.
var Profile = sim.Profile{
	Name: "vertica", Lang: "SQL",
	RecordCPUNs:     120, // vectorized probe/aggregate per row
	MsgBytes:        12,  // re-segmentation record
	PerMachineBase:  1 * sim.GB,
	Imbalance:       1.1,
	JobStartup:      1,
	JobStartupPerM:  0.02,
	PressurePenalty: 0, // spills instead of failing
}

// tempTableFixed is the per-iteration catalog cost of creating,
// distributing and dropping temporary tables, which grows with cluster
// size (§5.11: "its requirement to create and delete new temporary
// tables during execution, because each table is partitioned across
// multiple machines").
const tempTableFixed = 1.2

const tempTablePerMachine = 0.12

// edgeRowBytes is the on-disk projection width of an edge row.
const edgeRowBytes = 12

// vertexRowBytes is the on-disk width of a vertex-state row.
const vertexRowBytes = 24

// Vertica is the engine.
type Vertica struct {
	Profile sim.Profile
}

// New returns a Vertica engine with the default profile.
func New() *Vertica { return &Vertica{Profile: Profile} }

// Name implements engine.Engine.
func (e *Vertica) Name() string { return "vertica" }

// Run implements engine.Engine.
func (e *Vertica) Run(c *sim.Cluster, d *engine.Dataset, w engine.Workload, opt engine.Options) *engine.Result {
	res := engine.Begin(c, e.Name(), d, w, opt)
	m := c.Size()
	work := d.Graph

	// Load: COPY the edge list into the segmented, sorted edge
	// projection. Vertica uses its own storage, not HDFS (§2.6).
	res.Timed(c, &res.Load, func() error {
		if err := c.AllocAll(e.Profile.PerMachineBase); err != nil {
			return err
		}
		edgeBytes := float64(work.NumEdges()) * d.Scale * edgeRowBytes
		parse := e.Profile.RecordSeconds(float64(work.NumEdges())*d.Scale/float64(m), c.Config().Cores)
		return c.UniformStep(sim.StepCost{
			ComputeSeconds: parse * 2, // parse + sort for the projection
			DiskWriteBytes: edgeBytes / float64(m) * 2,
			NetSendBytes:   edgeBytes / float64(m),
			NetRecvBytes:   edgeBytes / float64(m),
		})
	})
	res.Timed(c, &res.Exec, func() error { return e.iterate(c, d, w, res) })
	// Save: the final vertex table is already a table; export it.
	res.Timed(c, &res.Save, func() error {
		outBytes := float64(work.NumVertices()) * d.Scale * vertexRowBytes
		return c.UniformStep(sim.StepCost{DiskWriteBytes: outBytes / float64(m)})
	})
	return res.Finish(c, res.Err)
}

// chargeIteration charges one SQL iteration: the edge projection scan,
// the join/aggregate CPU, the re-segmentation shuffle, and the
// temp-table swap.
func (e *Vertica) chargeIteration(c *sim.Cluster, d *engine.Dataset, scanRows, shuffleRows, outRows float64, dil float64) error {
	m := float64(c.Size())
	p := &e.Profile
	cpu := p.RecordSeconds(scanRows*d.Scale/m*p.Imbalance, c.Config().Cores)
	read := scanRows * d.Scale * edgeRowBytes / m
	write := outRows * d.Scale * vertexRowBytes * 2 / m // new table + WOS flush
	net := shuffleRows * d.Scale * float64(p.MsgBytes) / m

	if err := c.UniformStep(sim.StepCost{
		ComputeSeconds: cpu * dil,
		DiskReadBytes:  read * dil,
		DiskWriteBytes: write,
		NetSendBytes:   net,
		NetRecvBytes:   net,
	}); err != nil {
		return err
	}
	return c.Advance((tempTableFixed + tempTablePerMachine*m) * dil)
}

// iterate runs the workload as iterated join + aggregate queries: the
// values come from the shared kernels, and every iteration is charged as
// one query over the edge projection.
func (e *Vertica) iterate(c *sim.Cluster, d *engine.Dataset, w engine.Workload, res *engine.Result) error {
	work := d.Graph
	n := work.NumVertices()
	eRows := float64(work.NumEdges())
	dil := d.DilationFor(w.Kind)

	switch w.Kind {
	case engine.Triangle:
		// CREATE TABLE oriented AS SELECT ... : a degree aggregate joined
		// back onto the edge table, filtered to the forward direction.
		o, _ := graph.ForwardOrient(work)
		oRows := float64(o.NumEdges())
		if err := e.chargeIteration(c, d, 2*eRows, eRows, oRows, 1); err != nil {
			res.Iterations = 1
			return err
		}
		counts, joinRows := TriangleSelfJoin(o)
		res.Triangles = counts
		res.Iterations = 2
		res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: 1, Active: n})
		// The three-way self-join: two scans of the oriented projection,
		// the e1⋈e2 intermediate re-segmented by its probe key, and the
		// credit aggregate written back to the vertex table.
		return e.chargeIteration(c, d, 2*oRows+float64(joinRows), 2*float64(joinRows), float64(n), 1)
	case engine.WCC:
		work = d.Undirected()
	case engine.LPA:
		// Symmetrize: CREATE TABLE und AS SELECT both directions.
		work = work.Simple()
		uRows := float64(work.NumEdges())
		if err := e.chargeIteration(c, d, eRows, uRows, uRows/2, 1); err != nil {
			return err
		}
	}
	rows := float64(work.NumEdges())

	// Traversals keep their frontier in an active-vertex temporary table:
	// the rows the previous iteration changed (every vertex for WCC's
	// first, the source row for SSSP and K-hop). The join still scans
	// the full edge projection; only the build side shrinks.
	active := 1
	if w.Kind == engine.WCC {
		active = n
	}
	values, iters, err := kernel.FullScanRounds(work, w, d.Source, func(iter int, _ float64, changed int) error {
		if w.Kind == engine.PageRank || w.Kind == engine.LPA {
			// Every vertex joins and the vertex table is replaced
			// wholesale (CREATE TABLE new AS ...; swap, §2.6).
			// Shuffle: contributions re-segmented by dst, aggregates
			// re-joined with the vertex table, and the new table
			// distributed — roughly 2.5 row-movements per edge row.
			res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: iter, Active: n, Updates: changed})
			return e.chargeIteration(c, d, rows, rows*2.5, float64(n), dil)
		}
		res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: iter, Active: active, Updates: changed})
		err := e.chargeIteration(c, d, rows, float64(active)*4, float64(changed), dil)
		active = changed
		return err
	})
	res.Iterations = d.DilatedIterations(w.Kind, iters)
	res.SetOutputs(w.Kind, values)
	return err
}

// TriangleSelfJoin evaluates the canonical triangle query as a
// three-way self-join over the forward-oriented edge projection:
//
//	SELECT e1.src, e1.dst, e2.dst
//	FROM oriented e1
//	JOIN oriented e2 ON e2.src = e1.dst
//	JOIN oriented e3 ON e3.src = e1.src AND e3.dst = e2.dst
//
// Each match is one triangle (discovered exactly once thanks to the
// degree-ordered orientation) credited to all three corners, so the
// returned counts are per-vertex incident-triangle counts. joinRows is
// the e1⋈e2 intermediate cardinality — the rows probed against e3 and
// the dominant cost of the plan.
func TriangleSelfJoin(o *graph.Graph) (counts []int64, joinRows int64) {
	n := o.NumVertices()
	counts = make([]int64, n)
	for u := 0; u < n; u++ {
		for _, v := range o.OutNeighbors(graph.VertexID(u)) {
			for _, w := range o.OutNeighbors(v) {
				joinRows++
				if o.HasEdge(graph.VertexID(u), w) {
					counts[u]++
					counts[v]++
					counts[w]++
				}
			}
		}
	}
	return counts, joinRows
}
