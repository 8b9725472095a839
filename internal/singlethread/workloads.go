package singlethread

import (
	"slices"

	"graphbench/internal/graph"
)

// ForwardCountTriangles runs the serial forward-counting kernel over an
// already-oriented graph (see graph.ForwardOrient): for every vertex u
// and every pair of its forward neighbors, probe the oriented closing
// edge. Each triangle a≺b≺c is discovered exactly once (at u=a) and
// credited to all three corners. cands is the number of candidate pairs
// probed — the message volume of the distributed implementations.
func ForwardCountTriangles(o *graph.Graph, rank []int32) (counts []int64, total, cands int64) {
	n := o.NumVertices()
	counts = make([]int64, n)
	for u := 0; u < n; u++ {
		nbrs := o.OutNeighbors(graph.VertexID(u))
		for i, v := range nbrs {
			for _, w := range nbrs[i+1:] {
				// Probe the closing edge in forward orientation: from the
				// lower-ranked of {v, w} to the higher.
				a, b := v, w
				if rank[a] > rank[b] {
					a, b = b, a
				}
				cands++
				if o.HasEdge(a, b) {
					counts[u]++
					counts[v]++
					counts[w]++
					total++
				}
			}
		}
	}
	return counts, total, cands
}

// TriangleCounts runs the degree-ordered (forward) triangle counting
// oracle — the same algorithm every distributed engine implements:
// orient each undirected simple edge from its lower (degree, id) rank
// endpoint to the higher, then count with the forward kernel. The
// per-vertex counts are incident-triangle counts and their sum is 3×
// the global total.
func TriangleCounts(g *graph.Graph) (counts []int64, total int64, c Counters) {
	o, rank := graph.ForwardOrient(g)
	var cands int64
	counts, total, cands = ForwardCountTriangles(o, rank)
	c.VertexOps = float64(o.NumVertices())
	c.EdgeOps = float64(cands)
	return counts, total, c
}

// TriangleCountsNaive is the O(V·d²) reference the optimized forward
// implementation is verified against: for every vertex, count the
// neighbor pairs that are themselves adjacent, over the undirected
// simple view. Per-vertex counts are incident-triangle counts, directly
// comparable with TriangleCounts.
func TriangleCountsNaive(g *graph.Graph) []int64 {
	u := g.Simple()
	n := u.NumVertices()
	counts := make([]int64, n)
	for v := 0; v < n; v++ {
		nbrs := u.OutNeighbors(graph.VertexID(v))
		for i, a := range nbrs {
			for _, b := range nbrs[i+1:] {
				if u.HasEdge(a, b) {
					counts[v]++
				}
			}
		}
	}
	return counts
}

// ModeMaxLabel returns the most frequent value in the sorted slice,
// breaking frequency ties toward the largest value — the LPA update
// rule. The slice must be sorted ascending; empty input returns keep.
// Shared by every engine so the tie-break is identical everywhere.
func ModeMaxLabel(sorted []float64, keep float64) float64 {
	if len(sorted) == 0 {
		return keep
	}
	best, bestLen := sorted[0], 0
	runStart := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || sorted[i] != sorted[runStart] {
			// >= prefers the later (larger) label on frequency ties.
			if i-runStart >= bestLen {
				best, bestLen = sorted[runStart], i-runStart
			}
			runStart = i
		}
	}
	return best
}

// LPAOnSimple runs the serial synchronous label-propagation rounds over
// an undirected simple view (see graph.Graph.Simple): labels start at
// the vertex id; each round every vertex adopts the most frequent label
// among its neighbors (from the previous round), ties broken toward the
// largest label; isolated vertices keep their label. The returned
// labeling is canonicalized to the smallest member id per community,
// which is what makes the output a valid partition (every label is a
// member vertex's id) and comparable bit-for-bit across engines.
func LPAOnSimple(u *graph.Graph, rounds int) []graph.VertexID {
	n := u.NumVertices()
	cur := make([]float64, n)
	next := make([]float64, n)
	for v := range cur {
		cur[v] = float64(v)
	}
	var scratch []float64
	for it := 1; it <= rounds; it++ {
		for v := 0; v < n; v++ {
			scratch = scratch[:0]
			for _, w := range u.OutNeighbors(graph.VertexID(v)) {
				scratch = append(scratch, cur[w])
			}
			slices.Sort(scratch)
			next[v] = ModeMaxLabel(scratch, cur[v])
		}
		cur, next = next, cur
	}
	raw := make([]graph.VertexID, n)
	for v := range raw {
		raw[v] = graph.VertexID(cur[v])
	}
	return graph.CanonicalizeLabels(raw)
}

// LabelPropagation runs the synchronous label-propagation oracle for
// iters rounds over g's undirected simple view.
func LabelPropagation(g *graph.Graph, iters int) (labels []graph.VertexID, c Counters) {
	u := g.Simple()
	labels = LPAOnSimple(u, iters)
	c.VertexOps = float64(u.NumVertices() * iters)
	c.EdgeOps = float64(u.NumEdges() * iters)
	return labels, c
}
