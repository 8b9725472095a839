package blogel

import (
	"math"
	"slices"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/hdfs"
	"graphbench/internal/kernel"
	"graphbench/internal/par"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
)

// BEngine is Blogel-B, the block-centric mode.
type BEngine struct {
	Profile sim.Profile
}

// NewB returns Blogel-B with the default profile.
func NewB() *BEngine { return &BEngine{Profile: Profile} }

// Name implements engine.Engine.
func (e *BEngine) Name() string { return "blogel-b" }

// Run implements engine.Engine.
func (e *BEngine) Run(c *sim.Cluster, d *engine.Dataset, w engine.Workload, opt engine.Options) *engine.Result {
	res := engine.Begin(c, e.Name(), d, w, opt)
	prof := e.Profile
	m := c.Size()
	var gr *graph.Graph
	var loaded int64
	var vor *partition.Voronoi

	res.Timed(c, &res.Overhead, func() error { return c.Advance(prof.StartupSeconds(m)) })
	// Load + GVD partition phase (all part of load time, §5.1).
	res.Timed(c, &res.Load, func() (err error) {
		if gr, loaded, err = load(c, &prof, d, w); err != nil {
			return err
		}
		// GVD sampling aggregates per-vertex block assignments on the
		// master through MPI, whose int buffer offsets overflow for
		// billion-vertex graphs (§5.1: WRN and ClueWeb).
		if float64(d.NumVertices)*d.Scale*4 > maxInt32 {
			return &sim.Failure{Status: sim.MPI,
				Detail: "integer overflow aggregating GVD block assignments at the master"}
		}
		// The blocks are a function of the fixture alone (keyed by the
		// GVD options they were grown with); only their packing onto m
		// machines is this run's.
		gvd := partition.VoronoiOptions{}
		vor = engine.View(d, gvd, 0, func() *partition.Voronoi {
			return partition.BuildBlocks(gr, d.Undirected(), 11, gvd)
		}).Pack(m)
		return e.chargeVoronoi(c, d, gr, vor, opt)
	})
	// Execute block-centric computation. The persistent pool lives for
	// exactly this phase.
	res.Timed(c, &res.Exec, func() error {
		pool, release := par.Use(opt.Pool, opt.Shards)
		defer release()
		bx := &bExec{cluster: c, prof: &prof, d: d, g: gr, vor: vor, w: w, res: res,
			pool: pool, sp: opt.ShardPlan}
		return bx.run()
	})
	res.Timed(c, &res.Save, func() error { return save(c, d, gr, loaded) })
	return res.Finish(c, res.Err)
}

// chargeVoronoi charges the GVD sampling rounds and — unless the
// modified pipeline of Figure 3 is enabled — the write of partitioned
// data back to HDFS and its re-read before execution, which the paper
// found responsible for ~50% of end-to-end time.
func (e *BEngine) chargeVoronoi(c *sim.Cluster, d *engine.Dataset, gr *graph.Graph,
	vor *partition.Voronoi, opt engine.Options) error {

	m := c.Size()
	prof := &e.Profile
	edges := float64(gr.NumEdges()) * d.Scale
	verts := float64(gr.NumVertices()) * d.Scale

	// Each sampling round is a multi-source BFS sweep plus a master
	// aggregation of block assignments.
	for r := 0; r < vor.Rounds; r++ {
		bfs := prof.EdgeSeconds(edges/float64(m)*prof.Imbalance, c.Config().Cores)
		aggBytes := verts * 4 / float64(m)
		if err := c.UniformStep(sim.StepCost{ComputeSeconds: bfs, NetSendBytes: aggBytes, NetRecvBytes: aggBytes}); err != nil {
			return err
		}
	}

	if !opt.SkipHDFSRoundTrip {
		// Partition output is many small per-block files: the write
		// and re-read pay NameNode and seek overhead well beyond raw
		// streaming bandwidth.
		const partitionIOPenalty = 5
		bytes := d.FileBytes(graph.FormatAdjLong)
		write := hdfs.WriteSeconds(bytes, m, c.Config().DiskBW, c.Config().NetBW)
		read := hdfs.ParallelReadSeconds(bytes, m, m, c.Config().DiskBW)
		if err := c.Advance((write + read) * partitionIOPenalty); err != nil {
			return err
		}
	}
	return nil
}

// bExec runs the block-centric programs. Hot loops shard over blocks
// (or vertices) on the pool, with per-shard accumulators merged in
// shard order so any worker count produces identical runs.
type bExec struct {
	cluster *sim.Cluster
	prof    *sim.Profile
	d       *engine.Dataset
	g       *graph.Graph
	vor     *partition.Voronoi
	w       engine.Workload
	res     *engine.Result
	pool    *par.Pool
	sp      engine.ShardPlan
}

func (bx *bExec) run() error {
	switch bx.w.Kind {
	case engine.PageRank:
		return bx.pageRank()
	case engine.WCC:
		return bx.wcc()
	case engine.Triangle:
		return bx.triangles()
	case engine.LPA:
		return bx.lpa()
	default:
		return bx.traverse()
	}
}

// chargeRound charges one block-level superstep: serial in-block edge
// work, per-message CPU and network for cross-block traffic.
func (bx *bExec) chargeRound(edgeOps, msgs float64, dilated bool) error {
	c := bx.cluster
	m := float64(c.Size())
	p := bx.prof
	dil := 1.0
	if dilated {
		dil = bx.d.DilationFor(bx.w.Kind)
	}
	compute := p.EdgeSeconds(edgeOps/m*p.Imbalance*bx.d.Scale, c.Config().Cores) +
		p.MsgSeconds(2*msgs/m*p.Imbalance*bx.d.Scale, c.Config().Cores)
	net := msgs / m * p.Imbalance * p.MsgBytes * bx.d.Scale
	if err := c.UniformStep(sim.StepCost{ComputeSeconds: compute, NetSendBytes: net, NetRecvBytes: net}); err != nil {
		return err
	}
	return c.Advance(p.SuperstepFixed * dil)
}

// undirectedBlockAdj returns the undirected block adjacency.
func (bx *bExec) undirectedBlockAdj() [][]int32 {
	nb := bx.vor.NumBlocks
	adj := make([][]int32, nb)
	seen := make([]map[int32]bool, nb)
	add := func(a, b int32) {
		if seen[a] == nil {
			seen[a] = make(map[int32]bool)
		}
		if !seen[a][b] {
			seen[a][b] = true
			adj[a] = append(adj[a], b)
		}
	}
	for b, es := range bx.vor.BlockEdges {
		for nb2 := range es {
			add(int32(b), nb2)
			add(nb2, int32(b))
		}
	}
	return adj
}

// wcc runs block-centric HashMin: one serial pass establishes each
// block's minimum vertex id, then HashMin runs over the block graph —
// O(block-graph diameter) supersteps instead of O(graph diameter),
// Blogel-B's reachability win (§5.1).
func (bx *bExec) wcc() error {
	nb := bx.vor.NumBlocks
	labels := make([]float64, nb)
	for b := range labels {
		labels[b] = math.Inf(1)
	}
	for v := 0; v < bx.g.NumVertices(); v++ {
		b := bx.vor.BlockOf[v]
		if float64(v) < labels[b] {
			labels[b] = float64(v)
		}
	}
	// In-block serial pass: every edge touched once.
	if err := bx.chargeRound(float64(bx.g.NumEdges()), 0, false); err != nil {
		return err
	}

	adj := bx.undirectedBlockAdj()
	active := make([]bool, nb)
	for b := range active {
		active[b] = true
	}
	// Per-shard HashMin state, reused across rounds: a candidate-label
	// array plus the list of touched entries, so a round costs only
	// the edges of its active blocks, not Theta(workers·nb). Shards
	// are cut by block-adjacency degree, so a hub block doesn't
	// serialize the round behind one shard.
	type hashMinShard struct {
		edgeOps, msgs int64
		cand          []float64
		touched       []int32
	}
	blockWeights := make([]int64, nb)
	for b := range adj {
		blockWeights[b] = int64(1 + len(adj[b]))
	}
	pl := par.PlanWeighted(bx.pool.Workers(), blockWeights)
	hmShards := make([]*hashMinShard, pl.Count())
	for i := range hmShards {
		sh := &hashMinShard{cand: make([]float64, nb)}
		for o := range sh.cand {
			sh.cand[o] = math.Inf(1)
		}
		hmShards[i] = sh
	}

	// The round body, built once — steady-state rounds dispatch into
	// warm memory with zero allocations. Each shard of source blocks
	// collects candidate labels privately; the merge applies them in
	// shard order, keeping the minimum per destination. The sequential
	// loop's effect is the same per-destination minimum, so the round —
	// including which blocks activate — is identical for any shard
	// count.
	roundFn := func(i int) {
		sh := hmShards[i]
		sh.edgeOps, sh.msgs = 0, 0
		for _, o := range sh.touched {
			sh.cand[o] = math.Inf(1)
		}
		sh.touched = sh.touched[:0]
		s := pl.Shard(i)
		for b := s.Lo; b < s.Hi; b++ {
			if !active[b] {
				continue
			}
			sh.edgeOps += int64(len(adj[b]))
			sh.msgs += int64(len(adj[b]))
			for _, o := range adj[b] {
				if labels[b] < sh.cand[o] {
					if math.IsInf(sh.cand[o], 1) {
						sh.touched = append(sh.touched, o)
					}
					sh.cand[o] = labels[b]
				}
			}
		}
	}

	// Round buffers, reused: next labels are re-copied and next-active
	// flags cleared each round, then the pairs swap — no per-round
	// allocation.
	next := make([]bool, nb)
	newLabels := make([]float64, nb)
	rounds := 0
	for {
		rounds++
		bx.pool.ForEach(pl.Count(), roundFn)
		var msgs, edgeOps float64
		clear(next)
		copy(newLabels, labels)
		changedAny := false
		for _, sh := range hmShards {
			edgeOps += float64(sh.edgeOps)
			msgs += float64(sh.msgs)
			for _, o := range sh.touched {
				if sh.cand[o] < newLabels[o] {
					newLabels[o] = sh.cand[o]
					next[o] = true
					changedAny = true
				}
			}
		}
		labels, newLabels = newLabels, labels
		active, next = next, active
		bx.res.PerIteration = append(bx.res.PerIteration, engine.IterStat{Iteration: rounds, Active: nb})
		if err := bx.chargeRound(edgeOps, msgs, true); err != nil {
			return err
		}
		if !changedAny {
			break
		}
	}
	bx.res.Iterations = bx.d.DilatedIterations(engine.WCC, rounds)

	out := make([]graph.VertexID, bx.g.NumVertices())
	for v := range out {
		out[v] = graph.VertexID(labels[bx.vor.BlockOf[v]])
	}
	bx.res.Labels = out
	return nil
}

// traverse runs SSSP/K-hop: each round, blocks with pending distance
// updates run a serial multi-source BFS internally, then ship boundary
// improvements to neighboring blocks.
//
// Blocks run concurrently within a round: each block's BFS writes only
// its own vertices' distances; reads of foreign vertices go through a
// round-start snapshot, and boundary improvements are buffered as
// proposals applied in shard order after the round — the messages
// really do wait for the next superstep, which also makes the round
// deterministic (the old sequential loop leaked same-round updates
// between blocks in map-iteration order).
func (bx *bExec) traverse() error {
	n := bx.g.NumVertices()
	dist := make([]int32, n)
	distPrev := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	bound := int32(math.MaxInt32)
	if bx.w.Kind == engine.KHop {
		bound = int32(bx.w.K)
	}

	type proposal struct {
		v graph.VertexID
		d int32
	}
	// travShard is one worker's persistent round state: proposal and
	// write logs plus the two in-block BFS frontiers, all reused across
	// rounds. The frontiers are bitsets, so re-improving a vertex that
	// is already queued for the next level no longer enqueues it twice —
	// the duplicate used to be re-expanded with every write skipped,
	// inflating edge-op and boundary-message charges for work a real
	// BFS queue would not do.
	type travShard struct {
		edgeOps, msgs int64
		proposals     []proposal
		written       []graph.VertexID // in-block dist writes this round
		frontier      *graph.Frontier
		next          *graph.Frontier
	}
	shards := par.ScratchFor[travShard](bx.pool)
	// Per-block seed lists replace the old per-round map: slices are
	// truncated when their block is consumed and refilled by applied
	// proposals, so rounds allocate nothing once the buffers are warm.
	seeds := make([][]graph.VertexID, bx.vor.NumBlocks)
	blocks := make([]int32, 0, 1)
	nextBlocks := make([]int32, 0, 1)

	dist[bx.d.Source] = 0
	copy(distPrev, dist)
	src := bx.vor.BlockOf[bx.d.Source]
	seeds[src] = append(seeds[src], bx.d.Source)
	blocks = append(blocks, src)

	// The round body, built once: pl and blocks are rebound each round
	// and seen through the closure, so steady-state rounds dispatch
	// with zero allocations.
	var pl par.Plan
	roundFn := func(i int) {
		sh := shards.At(i)
		sh.edgeOps, sh.msgs = 0, 0
		sh.proposals, sh.written = sh.proposals[:0], sh.written[:0]
		if sh.frontier == nil {
			sh.frontier, sh.next = graph.NewFrontier(n), graph.NewFrontier(n)
		}
		s := pl.Shard(i)
		for bi := s.Lo; bi < s.Hi; bi++ {
			block := blocks[bi]
			// Serial BFS within the block from the updated vertices.
			sh.frontier.Clear()
			for _, v := range seeds[block] {
				sh.frontier.Add(v, 0)
			}
			for sh.frontier.Len() > 0 {
				sh.next.Clear()
				for _, v := range sh.frontier.Members() {
					if dist[v] >= bound {
						continue
					}
					for _, w := range bx.g.OutNeighbors(v) {
						sh.edgeOps++
						nd := dist[v] + 1
						if bx.vor.BlockOf[w] == block {
							if dist[w] != -1 && dist[w] <= nd {
								continue
							}
							dist[w] = nd
							sh.written = append(sh.written, w)
							sh.next.Add(w, 0)
						} else if distPrev[w] == -1 || nd < distPrev[w] {
							// Boundary improvement shipped to the
							// neighboring block for the next round.
							sh.msgs++
							sh.proposals = append(sh.proposals, proposal{v: w, d: nd})
						}
					}
				}
				sh.frontier, sh.next = sh.next, sh.frontier
			}
		}
	}
	rounds := 0
	for len(blocks) > 0 {
		rounds++
		pl = par.PlanShards(len(blocks), bx.pool.Workers())
		bx.pool.ForEach(pl.Count(), roundFn)
		// This round's seed lists are consumed; truncate them before the
		// proposal merge refills blocks for the next round.
		for _, b := range blocks {
			seeds[b] = seeds[b][:0]
		}
		nextBlocks = nextBlocks[:0]
		var edgeOps, msgs float64
		for i := 0; i < pl.Count(); i++ {
			sh := shards.At(i)
			edgeOps += float64(sh.edgeOps)
			msgs += float64(sh.msgs)
			for _, p := range sh.proposals {
				if dist[p.v] == -1 || p.d < dist[p.v] {
					dist[p.v] = p.d
					blk := bx.vor.BlockOf[p.v]
					if len(seeds[blk]) == 0 {
						nextBlocks = append(nextBlocks, blk)
					}
					seeds[blk] = append(seeds[blk], p.v)
				}
			}
		}
		// Sync the snapshot incrementally: only vertices written this
		// round (in-block BFS writes and applied proposals) changed, so
		// the round costs O(updates), not O(n).
		for i := 0; i < pl.Count(); i++ {
			sh := shards.At(i)
			for _, w := range sh.written {
				distPrev[w] = dist[w]
			}
			for _, p := range sh.proposals {
				distPrev[p.v] = dist[p.v]
			}
		}
		slices.Sort(nextBlocks)
		bx.res.PerIteration = append(bx.res.PerIteration, engine.IterStat{Iteration: rounds, Active: len(blocks)})
		if err := bx.chargeRound(edgeOps, msgs, true); err != nil {
			return err
		}
		blocks, nextBlocks = nextBlocks, blocks
	}
	bx.res.Iterations = bx.d.DilatedIterations(bx.w.Kind, rounds)
	bx.res.Dist = dist
	return nil
}

// triangles runs degree-ordered triangle counting block-centrically:
// every block enumerates its vertices' forward-neighbor pairs serially;
// candidate probes whose middle vertex lives in another block are
// shipped as messages, in-block probes are serial edge work. Block
// structure cannot change the counts — the algorithm and orientation
// are exactly the single-thread oracle's.
func (bx *bExec) triangles() error {
	o, rank := graph.ForwardOrient(bx.g)
	blockOf := bx.vor.BlockOf
	counts, cands, hits, msgs := kernel.ForwardTriangles(bx.pool, o, rank, func(u, prober graph.VertexID) bool {
		return blockOf[prober] != blockOf[u] // candidate shipped to the probing block
	})
	bx.res.Triangles = counts
	bx.res.Iterations = 1
	bx.res.PerIteration = append(bx.res.PerIteration, engine.IterStat{
		Iteration: 1, Active: bx.vor.NumBlocks, Updates: int(hits),
	})
	// Credits to corners in foreign blocks also cross the wire.
	return bx.chargeRound(float64(cands), float64(msgs)+2*float64(hits), false)
}

// lpa runs synchronous label propagation: the rounds are globally
// synchronous with a fixed cap, so block structure only changes the
// cost split — in-block edges are serial label reads, cross-block edges
// carry boundary label messages — never the labels themselves.
func (bx *bExec) lpa() error {
	u := bx.g.Simple()
	n := u.NumVertices()

	// Cross-block undirected edges, counted once: each round ships the
	// boundary labels.
	var crossE float64
	u.Edges(func(src, dst graph.VertexID) bool {
		if bx.vor.BlockOf[src] != bx.vor.BlockOf[dst] {
			crossE++
		}
		return true
	})

	labels, err := kernel.LPARounds(bx.pool, u, bx.w.LPAIterations(), func(it, updates int) error {
		bx.res.Iterations = it
		bx.res.PerIteration = append(bx.res.PerIteration, engine.IterStat{
			Iteration: it, Active: n, Updates: updates,
		})
		return bx.chargeRound(float64(u.NumEdges()), crossE, false)
	})
	bx.res.SetOutputs(engine.LPA, labels)
	return err
}

// pageRank runs the paper's two-step block PageRank (§3.1.2): local
// PageRank inside each block, a vertex-centric PageRank over the block
// graph with edge-count weights, then a full vertex-centric phase
// seeded with pr(v)·pr(b). The initialization is poor, so the vertex
// phase needs more iterations than plain PageRank — the reason Blogel-B
// loses this workload (§5.1).
func (bx *bExec) pageRank() error {
	n := bx.g.NumVertices()
	nb := bx.vor.NumBlocks
	tol := bx.w.Tolerance
	if tol <= 0 {
		tol = 0.01
	}

	// Step 1a: local PageRank within blocks (internal edges only). The
	// vertex sweeps shard over the degree-balanced plan with phase
	// bodies and a per-shard delta slab built once, so steady-state
	// iterations dispatch with zero allocations.
	pl := bx.sp.Cut(bx.g, bx.pool.Workers())
	deltas := make([]float64, pl.Count())
	local := make([]float64, n)
	for i := range local {
		local[i] = 1
	}
	contrib := make([]float64, n)
	localScatterFn := func(i int) {
		s := pl.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			internal := 0
			for _, w := range bx.g.OutNeighbors(graph.VertexID(v)) {
				if bx.vor.BlockOf[w] == bx.vor.BlockOf[v] {
					internal++
				}
			}
			if internal > 0 {
				contrib[v] = local[v] / float64(internal)
			} else {
				contrib[v] = 0
			}
		}
	}
	localGatherFn := func(i int) {
		s := pl.Shard(i)
		maxDelta := 0.0
		for v := s.Lo; v < s.Hi; v++ {
			sum := 0.0
			for _, u := range bx.g.InNeighbors(graph.VertexID(v)) {
				if bx.vor.BlockOf[u] == bx.vor.BlockOf[v] {
					sum += contrib[u]
				}
			}
			nv := bx.w.Damping + (1-bx.w.Damping)*sum
			if d := math.Abs(nv - local[v]); d > maxDelta {
				maxDelta = d
			}
			local[v] = nv
		}
		deltas[i] = maxDelta
	}
	localIters := 0
	for ; localIters < 30; localIters++ {
		bx.pool.ForEach(pl.Count(), localScatterFn)
		bx.pool.ForEach(pl.Count(), localGatherFn)
		maxDelta := 0.0
		for _, d := range deltas {
			if d > maxDelta {
				maxDelta = d
			}
		}
		if err := bx.chargeRound(float64(bx.g.NumEdges()), 0, false); err != nil {
			return err
		}
		if maxDelta < tol {
			break
		}
	}

	// Step 1b: PageRank over the block graph, weighted by edge counts.
	blockRank := make([]float64, nb)
	for b := range blockRank {
		blockRank[b] = 1
	}
	outW := make([]float64, nb)
	for b, es := range bx.vor.BlockEdges {
		for _, cnt := range es {
			outW[b] += float64(cnt)
		}
	}
	next := make([]float64, nb) // reused across iterations via swap
	for it := 0; it < 30; it++ {
		for b := range next {
			next[b] = bx.w.Damping
		}
		for b, es := range bx.vor.BlockEdges {
			if outW[b] == 0 {
				continue
			}
			for o, cnt := range es {
				next[o] += (1 - bx.w.Damping) * blockRank[b] * float64(cnt) / outW[b]
			}
		}
		maxDelta := 0.0
		for b := range next {
			if d := math.Abs(next[b] - blockRank[b]); d > maxDelta {
				maxDelta = d
			}
		}
		blockRank, next = next, blockRank
		if err := bx.chargeRound(float64(bx.vor.CrossBlockEdges()), float64(bx.vor.CrossBlockEdges()), false); err != nil {
			return err
		}
		if maxDelta < tol {
			break
		}
	}

	// Step 2: vertex-centric PageRank seeded with pr(v)·pr(b), on the
	// same plan and contribution scratch as step 1a.
	ranks := make([]float64, n)
	for v := 0; v < n; v++ {
		ranks[v] = local[v] * blockRank[bx.vor.BlockOf[v]]
	}
	global := kernel.NewPageRank(bx.pool, pl, bx.g, bx.w.Damping, ranks, contrib)
	iters := 0
	for {
		iters++
		maxDelta := global.Round()
		bx.res.PerIteration = append(bx.res.PerIteration, engine.IterStat{Iteration: iters, Active: n})
		// Step 2 is plain vertex-centric PageRank: every edge carries a
		// rank message, so it pays the full per-message cost.
		if err := bx.chargeRound(float64(bx.g.NumEdges()), float64(bx.g.NumEdges()), false); err != nil {
			return err
		}
		if bx.w.PageRankDone(iters, maxDelta) {
			break
		}
	}
	bx.res.Iterations = localIters + iters
	bx.res.Ranks = ranks
	return nil
}
