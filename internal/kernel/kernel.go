// Package kernel holds the sweep kernels more than one engine runs, so
// that an engine is its cost accounting plus a choice of kernels — the
// paper's method (§3) of keeping the algorithm uniform across systems,
// kept as structure rather than by copying: the Jacobi PageRank round,
// the full-scan round loop of the disk-, RDD- and table-based systems,
// and the sharded forward-triangle and label-propagation sweeps of the
// in-memory ones. Kernels do the real computation and report the counts
// engines charge for; they never touch the simulated cluster.
//
// The sharded kernels follow the shard-merge contract of internal/par:
// shards own disjoint vertex ranges, accumulators are integers or maxima
// folded in shard order, so outputs and counts are bit-identical at any
// pool size. The vertex-centric BSP programs live in internal/bsp, the
// serial oracles in internal/singlethread.
package kernel

import (
	"math"

	"graphbench/internal/graph"
	"graphbench/internal/par"
)

// pageRankScatter writes the per-out-edge contribution of every vertex
// in [lo, hi): rank over out-degree, zero for dangling vertices.
func pageRankScatter(g *graph.Graph, ranks, contrib []float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > 0 {
			contrib[v] = ranks[v] / float64(d)
		} else {
			contrib[v] = 0
		}
	}
}

// pageRankGather applies pr(v) = δ + (1−δ)·Σ contrib(u) over in-edges to
// every vertex in [lo, hi), in place — the sums read only contrib, so
// the round is a Jacobi step — and returns the largest rank change.
func pageRankGather(g *graph.Graph, damping float64, ranks, contrib []float64, lo, hi int) float64 {
	maxDelta := 0.0
	for v := lo; v < hi; v++ {
		sum := 0.0
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			sum += contrib[u]
		}
		nv := damping + (1-damping)*sum
		if d := math.Abs(nv - ranks[v]); d > maxDelta {
			maxDelta = d
		}
		ranks[v] = nv
	}
	return maxDelta
}

// PageRank runs Jacobi PageRank rounds sharded over a plan. The phase
// bodies and the per-shard delta slab are built once, so a steady-state
// round dispatches with zero allocations.
type PageRank struct {
	pool      *par.Pool
	shards    int
	deltas    []float64
	scatterFn func(i int)
	gatherFn  func(i int)
}

// NewPageRank prepares rounds over g that update ranks in place, using
// contrib (one slot per vertex) as scratch.
func NewPageRank(pool *par.Pool, pl par.Plan, g *graph.Graph, damping float64, ranks, contrib []float64) *PageRank {
	pr := &PageRank{pool: pool, shards: pl.Count(), deltas: make([]float64, pl.Count())}
	pr.scatterFn = func(i int) {
		s := pl.Shard(i)
		pageRankScatter(g, ranks, contrib, s.Lo, s.Hi)
	}
	pr.gatherFn = func(i int) {
		s := pl.Shard(i)
		pr.deltas[i] = pageRankGather(g, damping, ranks, contrib, s.Lo, s.Hi)
	}
	return pr
}

// Round runs one PageRank round and returns the largest rank change.
func (pr *PageRank) Round() float64 {
	pr.pool.ForEach(pr.shards, pr.scatterFn)
	pr.pool.ForEach(pr.shards, pr.gatherFn)
	maxDelta := 0.0
	for _, d := range pr.deltas {
		if d > maxDelta {
			maxDelta = d
		}
	}
	return maxDelta
}
