package kernel

import (
	"math"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
)

// FullScanRounds runs PageRank, WCC (HashMin), SSSP, K-hop or LPA the
// way the systems without a frontier do — Hadoop's job chain, GraphX's
// Pregel stages, Vertica's join per iteration: every round reads every
// vertex and emits along every edge of every reached vertex, whether or
// not anything changed. work is the graph the rounds run over (the
// undirected view for WCC, the undirected simple view for LPA) and
// source the SSSP/K-hop start vertex.
//
// perRound runs after each round with the round number, the messages
// the round emitted and how many values it changed (PageRank reports
// none); the engines charge their jobs, stages or queries there, and a
// non-nil error stops after that round. Otherwise the rounds stop by the
// workload's own criterion: PageRank's iteration cap or tolerance, LPA's
// round cap, a traversal round that changed nothing, or — K-hop only —
// K rounds, whichever comes first. The returned values and round count
// reflect the rounds completed.
func FullScanRounds(work *graph.Graph, w engine.Workload, source graph.VertexID,
	perRound func(iter int, msgs float64, changed int) error) (values []float64, iters int, err error) {

	n := work.NumVertices()
	values = make([]float64, n)
	scratch := make([]float64, n) // PageRank contributions / next-round values
	var nbrLabels []float64       // LPA's per-vertex gather buffer
	for v := range values {
		switch w.Kind {
		case engine.PageRank:
			values[v] = 1
		case engine.WCC, engine.LPA:
			values[v] = float64(v)
		default:
			values[v] = math.Inf(1)
		}
	}
	if w.Kind == engine.SSSP || w.Kind == engine.KHop {
		values[source] = 0
	}

	for {
		iters++
		var msgs, maxDelta float64
		changed := 0
		switch w.Kind {
		case engine.PageRank:
			pageRankScatter(work, values, scratch, 0, n)
			maxDelta = pageRankGather(work, w.Damping, values, scratch, 0, n)
			msgs = float64(work.NumEdges())
		case engine.LPA:
			changed, nbrLabels = lpaSweep(work, values, scratch, 0, n, nbrLabels)
			values, scratch = scratch, values
			msgs = float64(work.NumEdges())
		default:
			msgs, changed = minRelaxRound(work, w.Kind != engine.WCC, values, scratch)
			values, scratch = scratch, values
		}
		if err := perRound(iters, msgs, changed); err != nil {
			return values, iters, err
		}
		var done bool
		switch w.Kind {
		case engine.PageRank:
			done = w.PageRankDone(iters, maxDelta)
		case engine.LPA:
			done = iters >= w.LPAIterations()
		default:
			done = changed == 0 || w.Kind == engine.KHop && iters >= w.K
		}
		if done {
			return values, iters, nil
		}
	}
}

// minRelaxRound is one HashMin / BFS relaxation round: every reached
// vertex emits its value (plus one hop when hop is set) along its
// out-edges and every vertex keeps the minimum it received. next
// receives the new values; the round reports the messages emitted and
// the values changed.
func minRelaxRound(g *graph.Graph, hop bool, values, next []float64) (msgs float64, changed int) {
	copy(next, values)
	for v := range values {
		if math.IsInf(values[v], 1) {
			continue
		}
		emit := values[v]
		if hop {
			emit++
		}
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			msgs++
			if emit < next[u] {
				next[u] = emit
			}
		}
	}
	for v := range next {
		if next[v] != values[v] {
			changed++
		}
	}
	return msgs, changed
}
