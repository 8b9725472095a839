package gas

import (
	"math"
	"math/rand"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/kernel"
	"graphbench/internal/par"
	"graphbench/internal/sim"
)

// execution holds one run's state: the GAS engine proper. Gather reads
// neighbor values through mirrors (charged as mirror-sync messages),
// Apply updates the master copy, Scatter signals neighbors.
type execution struct {
	cluster *sim.Cluster
	prof    *sim.Profile
	d       *engine.Dataset
	g       *graph.Graph
	vc      replicaCounter
	w       engine.Workload
	opt     engine.Options
	res     *engine.Result
	pool    *par.Pool
	release func()   // closes the pool when owned; no-op when borrowed
	plan    par.Plan // edge-balanced vertex shards over g

	values    []float64
	active    []bool
	replicasM []int16        // cached replicas-1 per vertex
	costs     []sim.StepCost // per-iteration charge buffer, reused
}

// replicaCounter is the part of partition.VertexCut the execution needs.
type replicaCounter interface {
	NumReplicas(v graph.VertexID) int
	ReplicationFactor() float64
}

func (ex *execution) init() {
	ex.pool, ex.release = par.Use(ex.opt.Pool, ex.opt.Shards)
	ex.plan = ex.opt.ShardPlan.Cut(ex.g, ex.pool.Workers())
	n := ex.g.NumVertices()
	ex.values = make([]float64, n)
	ex.active = make([]bool, n)
	ex.replicasM = make([]int16, n)
	ex.costs = make([]sim.StepCost, ex.cluster.Size())
	for v := 0; v < n; v++ {
		r := ex.vc.NumReplicas(graph.VertexID(v)) - 1
		if r < 0 {
			r = 0
		}
		ex.replicasM[v] = int16(r)
		switch ex.w.Kind {
		case engine.PageRank:
			ex.values[v] = 1
		case engine.WCC:
			ex.values[v] = float64(v)
		case engine.SSSP, engine.KHop:
			ex.values[v] = math.Inf(1)
		}
	}
}

func (ex *execution) dilation() float64 {
	return ex.d.DilationFor(ex.w.Kind)
}

// chargeIteration charges one engine iteration: edge operations for
// gather+scatter, mirror-synchronization messages, the per-iteration
// scheduler cost (dilated for traversal workloads), and memory pressure.
func (ex *execution) chargeIteration(activeCount, gatherEdges, scatterEdges, mirrorMsgs float64, slowdown float64) error {
	p := ex.prof
	c := ex.cluster
	m := float64(c.Size())
	imb := p.Imbalance
	cores := c.Config().Cores
	dil := ex.dilation()

	edgeSec := p.EdgeSeconds((gatherEdges+scatterEdges)/m*imb*ex.d.Scale, cores)
	msgSec := p.MsgSeconds(mirrorMsgs/m*imb*ex.d.Scale, cores)
	scanSec := p.ScanSeconds(activeCount/m*imb*ex.d.Scale, cores)
	netBytes := mirrorMsgs / m * imb * p.MsgBytes * ex.d.Scale

	costs := ex.costs // reused across iterations; every field written below
	for i := range costs {
		compute := (scanSec*dil + edgeSec + msgSec) * slowdown
		compute *= p.PressureFactor(c.Machine(i).MemUsed(), c.Config().MemoryBytes)
		costs[i] = sim.StepCost{
			ComputeSeconds: compute,
			NetSendBytes:   netBytes,
			NetRecvBytes:   netBytes,
		}
	}
	if err := c.RunStep(costs); err != nil {
		return err
	}
	return c.Advance(p.SuperstepFixed * dil)
}

// runSync executes the synchronous GAS engine. It owns the pool's
// lifecycle: the persistent workers live for exactly one engine run.
func (ex *execution) runSync() error {
	ex.init()
	defer ex.release()
	switch ex.w.Kind {
	case engine.PageRank:
		return ex.syncPageRank()
	case engine.Triangle:
		return ex.syncTriangles()
	case engine.LPA:
		return ex.syncLPA()
	default:
		return ex.syncPropagate()
	}
}

// syncPageRank runs synchronous PageRank. In exact mode every vertex
// recomputes every iteration; in approximate mode (§5.2) vertices whose
// change fell below tolerance deactivate, and reactivate only when an
// in-neighbor's rank changes — they still gather from inactive
// neighbors, which is the memory-for-accuracy trade GraphLab makes.
func (ex *execution) syncPageRank() error {
	n := ex.g.NumVertices()
	contrib := make([]float64, n)
	next := make([]float64, n)
	changed := make([]bool, n) // reused: cleared at the top of each sweep
	approx := ex.opt.Approximate
	for v := range ex.active {
		ex.active[v] = true
	}
	tol := ex.w.Tolerance
	if tol <= 0 {
		tol = 0.01
	}

	// Per-shard accumulators of one gather/apply/scatter sweep. All
	// counters are integer-valued, so folding them in shard order (or
	// any order) reproduces the sequential float sums exactly;
	// maxDelta is a max and equally order-free. The slab and the two
	// phase bodies are built once and reused every iteration, so a
	// steady-state sweep dispatches into warm memory with zero
	// allocations.
	type sweepAcc struct {
		active, gatherEdges, scatterEdges, mirrorMsgs, updates int64
		maxDelta                                               float64
	}
	accs := make([]sweepAcc, ex.plan.Count())

	// Scatter contributions: pure per-vertex writes.
	scatterFn := func(i int) {
		s := ex.plan.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			if d := ex.g.OutDegree(graph.VertexID(v)); d > 0 {
				contrib[v] = ex.values[v] / float64(d)
			} else {
				contrib[v] = 0
			}
		}
	}
	// Gather+apply: shards own disjoint vertex ranges; contrib and
	// values are read-only here, next/changed writes vertex-owned.
	gatherFn := func(i int) {
		s := ex.plan.Shard(i)
		var a sweepAcc
		for v := s.Lo; v < s.Hi; v++ {
			changed[v] = false
			if approx && !ex.active[v] {
				next[v] = ex.values[v]
				continue
			}
			a.active++
			a.gatherEdges += int64(ex.g.InDegree(graph.VertexID(v)))
			a.mirrorMsgs += 2 * int64(ex.replicasM[v])
			sum := 0.0
			for _, u := range ex.g.InNeighbors(graph.VertexID(v)) {
				sum += contrib[u]
			}
			nv := ex.w.Damping + (1-ex.w.Damping)*sum
			next[v] = nv
			d := math.Abs(nv - ex.values[v])
			if d > a.maxDelta {
				a.maxDelta = d
			}
			if d > tol/10 {
				a.updates++
				changed[v] = true
				a.scatterEdges += int64(ex.g.OutDegree(graph.VertexID(v)))
			}
		}
		accs[i] = a
	}

	iters := 0
	for {
		iters++
		ex.pool.ForEach(ex.plan.Count(), scatterFn)
		ex.pool.ForEach(ex.plan.Count(), gatherFn)
		var activeCount, gatherEdges, scatterEdges, mirrorMsgs, updates float64
		maxDelta := 0.0
		for _, a := range accs {
			activeCount += float64(a.active)
			gatherEdges += float64(a.gatherEdges)
			scatterEdges += float64(a.scatterEdges)
			mirrorMsgs += float64(a.mirrorMsgs)
			updates += float64(a.updates)
			if a.maxDelta > maxDelta {
				maxDelta = a.maxDelta
			}
		}
		ex.values, next = next, ex.values
		ex.res.PerIteration = append(ex.res.PerIteration, engine.IterStat{
			Iteration: iters, Active: int(activeCount), Updates: int(updates),
		})
		if err := ex.chargeIteration(activeCount, gatherEdges, scatterEdges, mirrorMsgs, 1); err != nil {
			ex.finish(iters)
			return err
		}
		if approx {
			// Deactivate converged vertices; reactivate the out-neighbors
			// of changed ranks.
			for v := 0; v < n; v++ {
				ex.active[v] = false
			}
			anyActive := false
			for v := 0; v < n; v++ {
				if changed[v] {
					for _, w := range ex.g.OutNeighbors(graph.VertexID(v)) {
						ex.active[w] = true
						anyActive = true
					}
				}
			}
			if !anyActive {
				break
			}
		}
		if ex.w.PageRankDone(iters, maxDelta) {
			break
		}
	}
	ex.finish(iters)
	return nil
}

// syncPropagate runs WCC / SSSP / K-hop: frontier-driven min-propagation.
// WCC gathers across both edge directions (GraphLab sees both ends of an
// edge, §3.2); SSSP and K-hop gather along in-edges only.
//
// The frontier sweep stays sequential: values updated early in a round
// are visible to later frontier vertices (Gauss–Seidel propagation), so
// a sharded version would change how far labels travel per round and
// with it the modeled iteration counts — breaking the bit-identical
// guarantee the determinism tests enforce.
func (ex *execution) syncPropagate() error {
	n := ex.g.NumVertices()
	// Two bitset frontiers, swapped each round: Add dedupes enqueues in
	// O(1) (the job a per-round map used to do, allocating every round)
	// and Clear resets only the set bits, so steady-state rounds are
	// allocation-free.
	frontier := graph.NewFrontier(n)
	next := graph.NewFrontier(n)
	switch ex.w.Kind {
	case engine.WCC:
		for v := 0; v < n; v++ {
			frontier.Add(graph.VertexID(v), 0)
		}
	default:
		// The source's distance is applied at init; its scatter seeds
		// the first frontier, whose members gather from it.
		ex.values[ex.d.Source] = 0
		for _, w := range ex.g.OutNeighbors(ex.d.Source) {
			if w != ex.d.Source {
				frontier.Add(w, 0)
			}
		}
	}

	iters := 0
	for frontier.Len() > 0 {
		iters++
		if ex.w.Kind == engine.KHop && iters > ex.w.K {
			break
		}
		var gatherEdges, scatterEdges, mirrorMsgs float64
		for _, v := range frontier.Members() {
			mirrorMsgs += 2 * float64(ex.replicasM[v])
			var newVal float64
			switch ex.w.Kind {
			case engine.WCC:
				gatherEdges += float64(ex.g.InDegree(v) + ex.g.OutDegree(v))
				newVal = ex.values[v]
				for _, u := range ex.g.InNeighbors(v) {
					if ex.values[u] < newVal {
						newVal = ex.values[u]
					}
				}
				for _, u := range ex.g.OutNeighbors(v) {
					if ex.values[u] < newVal {
						newVal = ex.values[u]
					}
				}
			default:
				gatherEdges += float64(ex.g.InDegree(v))
				newVal = ex.values[v]
				for _, u := range ex.g.InNeighbors(v) {
					if ex.values[u]+1 < newVal {
						newVal = ex.values[u] + 1
					}
				}
			}
			if newVal < ex.values[v] {
				ex.values[v] = newVal
				scatterEdges += float64(ex.g.OutDegree(v))
				for _, w := range ex.g.OutNeighbors(v) {
					if w != v {
						next.Add(w, 0)
					}
				}
				if ex.w.Kind == engine.WCC {
					scatterEdges += float64(ex.g.InDegree(v))
					for _, w := range ex.g.InNeighbors(v) {
						if w != v {
							next.Add(w, 0)
						}
					}
				}
			}
		}
		ex.res.PerIteration = append(ex.res.PerIteration, engine.IterStat{
			Iteration: iters, Active: frontier.Len(), Updates: next.Len(),
		})
		if err := ex.chargeIteration(float64(frontier.Len()), gatherEdges, scatterEdges, mirrorMsgs, 1); err != nil {
			ex.finish(iters)
			return err
		}
		// Keep only vertices that can still improve: swap the two
		// frontiers and clear the consumed one (O(members), not O(n)).
		frontier, next = next, frontier
		next.Clear()
	}
	ex.finish(iters)
	return nil
}

// finish records the iteration count (at paper scale) and decodes the
// value plane into the workload's typed output.
func (ex *execution) finish(iters int) {
	ex.res.Iterations = ex.d.DilatedIterations(ex.w.Kind, iters)
	ex.res.SetOutputs(ex.w.Kind, ex.values)
}

// syncTriangles runs degree-ordered triangle counting as one gather-
// heavy GAS phase: every vertex gathers its forward neighborhood
// through mirrors, generates candidate pairs (the quadratic fan-out),
// probes closing edges, and scatters credits to triangle corners.
func (ex *execution) syncTriangles() error {
	o, rank := graph.ForwardOrient(ex.g)
	n := o.NumVertices()
	counts, cands64, hits64, _ := kernel.ForwardTriangles(ex.pool, o, rank, nil)
	cands, hits := float64(cands64), float64(hits64)
	ex.res.Triangles = counts
	ex.res.Iterations = 1
	ex.res.PerIteration = append(ex.res.PerIteration, engine.IterStat{
		Iteration: 1, Active: n, Updates: int(hits),
	})
	// Gather probes the candidate pairs; scatter ships two credits per
	// triangle; candidates travel through mirrors like gather values.
	return ex.chargeIteration(float64(n), cands, 2*hits, ex.mirrorSync()+cands, 1)
}

// mirrorSync is the mirror-synchronization message count of an iteration
// in which every vertex participates: each replica beyond the master
// receives the gathered value and returns its partial.
func (ex *execution) mirrorSync() float64 {
	var msgs int64
	for _, r := range ex.replicasM {
		msgs += 2 * int64(r)
	}
	return float64(msgs)
}

// syncLPA runs synchronous label propagation over the undirected simple
// view: a fixed number of rounds in which every vertex gathers its
// neighbors' labels and applies the most-frequent / max-tie-break rule.
func (ex *execution) syncLPA() error {
	u := ex.g.Simple()
	n := u.NumVertices()
	edges, mirrorMsgs := float64(u.NumEdges()), ex.mirrorSync()
	labels, err := kernel.LPARounds(ex.pool, u, ex.w.LPAIterations(), func(it, updates int) error {
		ex.res.Iterations = it
		ex.res.PerIteration = append(ex.res.PerIteration, engine.IterStat{
			Iteration: it, Active: n, Updates: updates,
		})
		return ex.chargeIteration(float64(n), edges, edges, mirrorMsgs, 1)
	})
	ex.res.SetOutputs(engine.LPA, labels)
	return err
}

// runAsync executes the asynchronous engine's PageRank: chaotic
// Gauss–Seidel sweeps with immediate value visibility, lock-contention
// slowdown, and the distributed-lock memory accumulation of §5.3 /
// Figure 10. The sweep is inherently sequential — each vertex reads
// values written moments earlier in the same permutation pass — so it
// does not shard. PageRank is the one workload the paper evaluates the
// asynchronous engine on; GraphLab.Run sends every other kind to the
// synchronous implementation.
func (ex *execution) runAsync() error {
	ex.init()
	defer ex.release()
	n := ex.g.NumVertices()
	rng := rand.New(rand.NewSource(11))
	order := rng.Perm(n)

	slow := asyncSlowdown
	if ex.opt.UseAllCores {
		// Figure 1: async gains nothing from more compute threads —
		// context switching makes it slightly worse.
		slow *= 1.2
	}
	tol := ex.w.Tolerance
	if tol <= 0 {
		tol = 0.01
	}

	var lockBytes int64
	defer func() {
		if lockBytes > 0 {
			ex.cluster.FreeAll(lockBytes)
		}
	}()

	iters := 0
	for {
		iters++
		var updates, gatherEdges, mirrorMsgs float64
		maxDelta := 0.0
		for _, vi := range order {
			v := graph.VertexID(vi)
			gatherEdges += float64(ex.g.InDegree(v))
			mirrorMsgs += 2 * float64(ex.replicasM[v])
			sum := 0.0
			for _, u := range ex.g.InNeighbors(v) {
				if d := ex.g.OutDegree(u); d > 0 {
					sum += ex.values[u] / float64(d)
				}
			}
			nv := ex.w.Damping + (1-ex.w.Damping)*sum
			d := math.Abs(nv - ex.values[v])
			if d > maxDelta {
				maxDelta = d
			}
			if d > tol/10 {
				updates++
			}
			ex.values[v] = nv
		}
		ex.res.PerIteration = append(ex.res.PerIteration, engine.IterStat{
			Iteration: iters, Active: n, Updates: int(updates),
		})

		// Distributed-lock memory accumulates with every update and
		// grows with cluster size; it is not released until the engine
		// finishes (§5.3: "thousands of threads ... allocate memory for
		// vertices without releasing them").
		grow := int64(updates * ex.d.Scale * asyncLockBytesPerUpdate * float64(ex.cluster.Size()))
		lockBytes += grow
		var allocErr error
		for i := 0; i < ex.cluster.Size(); i++ {
			if err := ex.cluster.Alloc(i, grow); err != nil && allocErr == nil {
				allocErr = err
			}
		}
		if err := ex.chargeIteration(float64(n), gatherEdges, 0, mirrorMsgs, slow); err != nil {
			ex.finish(iters)
			return err
		}
		if allocErr != nil {
			ex.finish(iters)
			return allocErr
		}
		if ex.w.PageRankDone(iters, maxDelta) {
			break
		}
	}
	ex.finish(iters)
	return nil
}
