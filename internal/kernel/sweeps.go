package kernel

import (
	"slices"

	"graphbench/internal/graph"
	"graphbench/internal/par"
	"graphbench/internal/singlethread"
)

// ForwardTriangles runs degree-ordered (forward) triangle counting over
// an oriented graph (see graph.ForwardOrient), sharded on the pool: for
// every vertex u and every pair of its forward neighbors, probe the
// oriented closing edge from the lower-ranked to the higher. Each
// triangle is found once and credited to its three corners. It returns
// the per-vertex incident-triangle counts, the candidate pairs probed
// and the triangles found.
//
// shipped, when non-nil, is asked for every candidate whether the pair
// enumerated at u travels to its probing vertex as a message (Blogel-B:
// the prober lives in another block); the number that do is returned.
//
// Shards are cut by the oriented degrees — the quadratic candidate
// fan-out concentrates on the forward-heavy vertices — and count into
// private arrays merged by integer sum.
func ForwardTriangles(pool *par.Pool, o *graph.Graph, rank []int32,
	shipped func(u, prober graph.VertexID) bool) (counts []int64, cands, hits, ships int64) {

	n := o.NumVertices()
	type acc struct {
		counts             []int64
		cands, hits, ships int64
	}
	pl := par.PlanPrefix(o.WorkPrefix(), pool.Workers())
	accs := par.MapPlan(pool, pl, func(s par.Shard) acc {
		a := acc{counts: make([]int64, n)}
		for u := s.Lo; u < s.Hi; u++ {
			nbrs := o.OutNeighbors(graph.VertexID(u))
			for i, v := range nbrs {
				for _, w := range nbrs[i+1:] {
					lo, hi := v, w
					if rank[lo] > rank[hi] {
						lo, hi = hi, lo
					}
					a.cands++
					if shipped != nil && shipped(graph.VertexID(u), lo) {
						a.ships++
					}
					if o.HasEdge(lo, hi) {
						a.hits++
						a.counts[u]++
						a.counts[v]++
						a.counts[w]++
					}
				}
			}
		}
		return a
	})
	counts = make([]int64, n)
	for _, a := range accs {
		for v, c := range a.counts {
			counts[v] += c
		}
		cands += a.cands
		hits += a.hits
		ships += a.ships
	}
	return counts, cands, hits, ships
}

// lpaSweep is one label-propagation round over the vertices in
// [lo, hi) of an undirected simple view: every vertex adopts the most
// frequent label among its neighbors in labels, ties broken toward the
// largest (singlethread.ModeMaxLabel), isolated vertices keep theirs.
// next receives the new labels; buf is the gather buffer, returned for
// reuse. The sweep reports how many labels changed.
func lpaSweep(u *graph.Graph, labels, next []float64, lo, hi int, buf []float64) (int, []float64) {
	changed := 0
	for v := lo; v < hi; v++ {
		buf = buf[:0]
		for _, w := range u.OutNeighbors(graph.VertexID(v)) {
			buf = append(buf, labels[w])
		}
		slices.Sort(buf)
		next[v] = singlethread.ModeMaxLabel(buf, labels[v])
		if next[v] != labels[v] {
			changed++
		}
	}
	return changed, buf
}

// LPARounds runs synchronous label propagation over an undirected
// simple view (see graph.Graph.Simple), sharded on the pool: labels
// start at the vertex id and each round is an lpaSweep of the previous
// round's labels. perRound runs after each round with the round number
// and the number of labels that changed; a non-nil error stops after
// that round. The returned labels are the raw values of the last
// completed round.
//
// Shards are cut by the view's degrees (label gathering is edge work)
// and each round reads only the previous round's labels, so the labels
// are bit-identical at any pool size. The round body and its per-shard
// scratch are built once: steady-state rounds allocate nothing.
func LPARounds(pool *par.Pool, u *graph.Graph, rounds int, perRound func(it, updates int) error) ([]float64, error) {
	n := u.NumVertices()
	labels := make([]float64, n)
	next := make([]float64, n)
	for v := range labels {
		labels[v] = float64(v)
	}
	pl := par.PlanPrefix(u.WorkPrefix(), pool.Workers())
	scratch := make([][]float64, pl.Count())
	updates := make([]int, pl.Count())
	roundFn := func(i int) {
		s := pl.Shard(i)
		updates[i], scratch[i] = lpaSweep(u, labels, next, s.Lo, s.Hi, scratch[i])
	}
	for it := 1; it <= rounds; it++ {
		pool.ForEach(pl.Count(), roundFn)
		upd := 0
		for _, x := range updates {
			upd += x
		}
		labels, next = next, labels
		if err := perRound(it, upd); err != nil {
			return labels, err
		}
	}
	return labels, nil
}
