package kernel

import (
	"math"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
)

// FullScanRounds runs PageRank, WCC (HashMin), SSSP or K-hop the way the
// systems without a frontier do — Hadoop's job chain, GraphX's Pregel
// stages: every round reads every vertex and emits along every edge of
// every reached vertex, whether or not anything changed. work is the
// graph the rounds run over (the undirected view for WCC) and source the
// SSSP/K-hop start vertex.
//
// perRound runs after each round with the round number, the messages
// the round emitted and how many values it changed; the engines charge
// their jobs or stages there, and a non-nil error stops after that
// round. Otherwise the rounds stop by the workload's own criterion:
// PageRank's iteration cap or tolerance, K hops, or a round that changed
// nothing. The returned values and round count reflect the rounds
// completed.
func FullScanRounds(work *graph.Graph, w engine.Workload, source graph.VertexID,
	perRound func(iter int, msgs float64, changed int) error) (values []float64, iters int, err error) {

	n := work.NumVertices()
	values = make([]float64, n)
	scratch := make([]float64, n) // PageRank contributions / next-round minima
	for v := range values {
		switch w.Kind {
		case engine.PageRank:
			values[v] = 1
		case engine.WCC:
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
		if w.Kind == engine.PageRank {
			pageRankScatter(work, values, scratch, 0, n)
			maxDelta = pageRankGather(work, w.Damping, values, scratch, 0, n)
			msgs = float64(work.NumEdges())
		} else {
			msgs, changed = minRelaxRound(work, w.Kind != engine.WCC, values, scratch)
			values, scratch = scratch, values
		}
		if err := perRound(iters, msgs, changed); err != nil {
			return values, iters, err
		}
		switch w.Kind {
		case engine.PageRank:
			if w.PageRankDone(iters, maxDelta) {
				return values, iters, nil
			}
		case engine.KHop:
			if iters >= w.K {
				return values, iters, nil
			}
		default:
			if changed == 0 {
				return values, iters, nil
			}
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
