package relational

import (
	"math"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
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
	res.Timed(c, &res.Exec, func() error {
		// Build the edge table (real columns).
		if w.Kind == engine.WCC {
			work = work.Undirected()
		}
		src := make(Column, 0, work.NumEdges())
		dst := make(Column, 0, work.NumEdges())
		work.Edges(func(s, t graph.VertexID) bool {
			src = append(src, float64(s))
			dst = append(dst, float64(t))
			return true
		})
		return e.iterate(c, d, work, src, dst, w, res)
	})
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

func (e *Vertica) iterate(c *sim.Cluster, d *engine.Dataset, work *graph.Graph,
	src, dst Column, w engine.Workload, res *engine.Result) error {

	n := work.NumVertices()
	dil := d.DilationFor(w.Kind)
	eRows := float64(len(src))

	switch w.Kind {
	case engine.PageRank:
		ranks := make(Column, n)
		weight := make(Column, n)
		for v := 0; v < n; v++ {
			ranks[v] = 1
			weight[v] = float64(work.OutDegree(graph.VertexID(v)))
		}
		iters := 0
		for {
			iters++
			sums := JoinSumByDst(src, dst, ranks, weight, n)
			maxDelta := 0.0
			for v := range sums {
				nv := w.Damping + (1-w.Damping)*sums[v]
				if dd := math.Abs(nv - ranks[v]); dd > maxDelta {
					maxDelta = dd
				}
				sums[v] = nv
			}
			ranks = sums // CREATE TABLE new AS ... ; swap (§2.6)
			res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: iters, Active: n})
			// Shuffle: contributions re-segmented by dst, aggregates
			// re-joined with the vertex table, and the new table
			// distributed — roughly 2.5 row-movements per edge row.
			if err := e.chargeIteration(c, d, eRows, eRows*2.5, float64(n), 1); err != nil {
				res.Iterations = iters
				res.Ranks = ranks
				return err
			}
			if w.PageRankDone(iters, maxDelta) {
				break
			}
		}
		res.Iterations = iters
		res.Ranks = ranks
		return nil

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

	case engine.LPA:
		u := work.Simple()
		usrc := make(Column, 0, u.NumEdges())
		udst := make(Column, 0, u.NumEdges())
		u.Edges(func(s, t graph.VertexID) bool {
			usrc = append(usrc, float64(s))
			udst = append(udst, float64(t))
			return true
		})
		uRows := float64(len(usrc))
		labels := make(Column, n)
		for v := range labels {
			labels[v] = float64(v)
		}
		rounds := w.LPAIterations()
		finish := func(iters int) {
			res.Iterations = iters
			res.SetOutputs(engine.LPA, labels)
		}
		// Symmetrize: CREATE TABLE und AS SELECT both directions.
		if err := e.chargeIteration(c, d, eRows, uRows, uRows/2, 1); err != nil {
			finish(0)
			return err
		}
		for it := 1; it <= rounds; it++ {
			next := JoinModeByDst(usrc, udst, labels, labels, n)
			changed := 0
			for v := range next {
				if next[v] != labels[v] {
					changed++
				}
			}
			labels = next // CREATE TABLE new AS ... ; swap (§2.6)
			res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: it, Active: n, Updates: changed})
			if err := e.chargeIteration(c, d, uRows, uRows*2.5, float64(n), 1); err != nil {
				finish(it)
				return err
			}
		}
		finish(rounds)
		return nil

	default:
		// Traversals: the active-vertex temp table optimization. The
		// join still scans the full edge projection; only the build
		// side shrinks.
		vals := make(Column, n)
		for v := range vals {
			vals[v] = math.Inf(1)
		}
		delta := 1.0
		if w.Kind == engine.WCC {
			delta = 0
			for v := range vals {
				vals[v] = float64(v)
			}
		} else {
			vals[d.Source] = 0
		}
		active := make([]bool, n)
		if w.Kind == engine.WCC {
			for v := range active {
				active[v] = true
			}
		} else {
			active[d.Source] = true
		}

		iters := 0
		var err error
		for {
			iters++
			mins := JoinMinByDst(src, dst, vals, active, delta, math.Inf(1), n)
			activeRows := 0.0
			for v := range active {
				if active[v] {
					activeRows++
				}
			}
			changed := 0
			nextActive := make([]bool, n)
			for v := range mins {
				if mins[v] < vals[v] {
					vals[v] = mins[v]
					nextActive[v] = true
					changed++
				}
			}
			active = nextActive
			res.PerIteration = append(res.PerIteration, engine.IterStat{Iteration: iters, Active: int(activeRows), Updates: changed})
			if err = e.chargeIteration(c, d, eRows, activeRows*4, float64(changed), dil); err != nil {
				break
			}
			if changed == 0 {
				break
			}
			if w.Kind == engine.KHop && iters >= w.K {
				break
			}
		}
		res.Iterations = d.DilatedIterations(w.Kind, iters)
		res.SetOutputs(w.Kind, vals)
		return err
	}
}
