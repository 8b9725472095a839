// Package graph provides the in-memory graph substrate shared by every
// engine in this repository: a compact CSR (compressed sparse row)
// representation with both out- and in-adjacency, degree statistics, and
// the three on-disk formats used in the paper (adj, adj-long, edge).
//
// Graphs are directed. Vertex identifiers are dense integers in
// [0, NumVertices). Each graph carries a ScaleFactor: the number of
// paper-scale vertices/edges that one synthetic vertex/edge stands for.
// Engines multiply resource charges by the scale factor so that memory
// and time accounting reflect the paper-scale datasets while the actual
// computation runs on a small synthetic analogue.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// VertexID identifies a vertex. IDs are dense: 0 <= id < NumVertices.
type VertexID int32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst VertexID
}

// Graph is an immutable directed graph in CSR form.
//
// The zero value is an empty graph; use a Builder to construct one.
type Graph struct {
	name string

	outOffsets []int32
	outEdges   []VertexID
	inOffsets  []int32
	inEdges    []VertexID

	selfEdges int
	scale     float64

	workOnce   sync.Once
	workPrefix []int64
}

// Name returns the dataset name ("twitter", "wrn", ...), possibly empty.
func (g *Graph) Name() string { return g.name }

// ScaleFactor reports how many paper-scale vertices/edges one synthetic
// vertex/edge represents. It is 1 for graphs built directly from data.
func (g *Graph) ScaleFactor() float64 {
	if g.scale <= 0 {
		return 1
	}
	return g.scale
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.outOffsets) == 0 {
		return 0
	}
	return len(g.outOffsets) - 1
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outEdges) }

// SelfEdges returns the number of edges with Src == Dst.
func (g *Graph) SelfEdges() int { return g.selfEdges }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outOffsets[v+1] - g.outOffsets[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// OutNeighbors returns the out-neighbors of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outEdges[g.outOffsets[v]:g.outOffsets[v+1]]
}

// InNeighbors returns the in-neighbors of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.inEdges[g.inOffsets[v]:g.inOffsets[v+1]]
}

// Edges calls fn for every directed edge. It stops early if fn returns false.
func (g *Graph) Edges(fn func(src, dst VertexID) bool) {
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			if !fn(VertexID(v), w) {
				return
			}
		}
	}
}

// WorkPrefix returns the prefix-summed per-vertex work weights used by
// the runtimes' edge-balanced shard plans (par.PlanPrefix): entry v is
// the total weight of vertices [0, v), where a vertex weighs
// 1 + outdeg + indeg — one unit of scan work plus one per incident edge
// in either direction, covering sends along out-edges and inbox volume
// arriving along in-edges. Both degree terms come straight from the CSR
// offset arrays (which are themselves degree prefix sums), so the array
// is filled in one O(V) pass, computed on first use and cached: the
// graph is immutable, and every engine run over it shares the result.
func (g *Graph) WorkPrefix() []int64 {
	g.workOnce.Do(func() {
		n := g.NumVertices()
		p := make([]int64, n+1)
		for v := 1; v <= n; v++ {
			p[v] = int64(v) + int64(g.outOffsets[v]) + int64(g.inOffsets[v])
		}
		g.workPrefix = p
	})
	return g.workPrefix
}

// Stats summarizes degree structure; see Table 3 of the paper.
type Stats struct {
	Vertices     int
	Edges        int
	AvgOutDegree float64
	MaxOutDegree int
	MaxInDegree  int
	SelfEdges    int
}

// Stats computes degree statistics over the graph. Both maxima come
// from one pass over the raw offset arrays: each degree is the delta of
// adjacent offsets, so the loop runs bounds-check-free instead of
// paying two checked subtractions per vertex through the accessors.
func (g *Graph) Stats() Stats {
	s := Stats{Vertices: g.NumVertices(), Edges: g.NumEdges(), SelfEdges: g.selfEdges}
	if s.Vertices == 0 {
		return s
	}
	maxOut, maxIn := int32(0), int32(0)
	prevOut, prevIn := g.outOffsets[0], g.inOffsets[0]
	for v := 1; v <= s.Vertices; v++ {
		if d := g.outOffsets[v] - prevOut; d > maxOut {
			maxOut = d
		}
		prevOut = g.outOffsets[v]
		if d := g.inOffsets[v] - prevIn; d > maxIn {
			maxIn = d
		}
		prevIn = g.inOffsets[v]
	}
	s.MaxOutDegree, s.MaxInDegree = int(maxOut), int(maxIn)
	s.AvgOutDegree = float64(s.Edges) / float64(s.Vertices)
	return s
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	name     string
	n        int
	edges    []Edge
	scale    float64
	dedupe   bool
	haveDups bool
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, scale: 1}
}

// SetName records the dataset name on the built graph.
func (b *Builder) SetName(name string) *Builder { b.name = name; return b }

// SetScaleFactor records the paper-scale multiplier on the built graph.
func (b *Builder) SetScaleFactor(s float64) *Builder { b.scale = s; return b }

// Dedupe removes duplicate edges at Build time when enabled.
func (b *Builder) Dedupe(on bool) *Builder { b.dedupe = on; return b }

// Reserve preallocates capacity for n edges, so callers that know the
// final edge count (ForwardOrient, loaders with a header) avoid the
// append growth copies.
func (b *Builder) Reserve(n int) *Builder {
	if cap(b.edges) < n {
		edges := make([]Edge, len(b.edges), n)
		copy(edges, b.edges)
		b.edges = edges
	}
	return b
}

// AddEdge appends the directed edge (src, dst). It panics if either
// endpoint is out of range, since that is a programming error in the
// generator or loader, not a runtime condition.
func (b *Builder) AddEdge(src, dst VertexID) {
	if src < 0 || int(src) >= b.n || dst < 0 || int(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst})
}

// NumEdges returns the number of edges accumulated so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build constructs the CSR graph. The Builder must not be reused after.
//
// Edge ordering is (Src, Dst) ascending, exactly as the former
// comparator sort produced, but via a two-pass counting sort over Src —
// count degrees, then scatter destinations straight into the CSR edge
// array — which is O(V+E) with no comparator dispatch. Each vertex's
// destination run is then sorted in place; runs are typically tiny
// (average degree), so this is the cheap tail of the work.
func (b *Builder) Build() *Graph {
	g := &Graph{name: b.name, scale: b.scale}
	g.outOffsets = make([]int32, b.n+1)
	for _, e := range b.edges {
		g.outOffsets[e.Src+1]++
	}
	for v := 0; v < b.n; v++ {
		g.outOffsets[v+1] += g.outOffsets[v]
	}
	g.outEdges = make([]VertexID, len(b.edges))
	cursor := make([]int32, b.n)
	copy(cursor, g.outOffsets[:b.n])
	for _, e := range b.edges {
		g.outEdges[cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	for v := 0; v < b.n; v++ {
		slices.Sort(g.outEdges[g.outOffsets[v]:g.outOffsets[v+1]])
	}

	if b.dedupe && b.n > 0 {
		// Compact each sorted run in place, sliding offsets down.
		w := int32(0)
		readLo := g.outOffsets[0]
		for v := 0; v < b.n; v++ {
			readHi := g.outOffsets[v+1]
			g.outOffsets[v] = w
			for i := readLo; i < readHi; i++ {
				if i > readLo && g.outEdges[i] == g.outEdges[i-1] {
					continue
				}
				g.outEdges[w] = g.outEdges[i]
				w++
			}
			readLo = readHi
		}
		g.outOffsets[b.n] = w
		g.outEdges = g.outEdges[:w]
	}

	inDeg := make([]int32, b.n)
	for v := 0; v < b.n; v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			inDeg[w]++
			if w == VertexID(v) {
				g.selfEdges++
			}
		}
	}
	g.inOffsets = make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		g.inOffsets[v+1] = g.inOffsets[v] + inDeg[v]
	}
	g.inEdges = make([]VertexID, len(g.outEdges))
	copy(cursor, g.inOffsets[:b.n])
	for v := 0; v < b.n; v++ {
		for _, w := range g.OutNeighbors(VertexID(v)) {
			g.inEdges[cursor[w]] = VertexID(v)
			cursor[w]++
		}
	}
	// In-neighbor lists are filled in src order, hence already sorted.
	b.edges = nil
	return g
}

// Undirected returns a new graph in which every edge (u,v) also appears
// as (v,u). Duplicate edges are removed. WCC and diameter estimation use
// the undirected view.
//
// A vertex's undirected neighbours are the union of its out- and
// in-lists, both already sorted, so the view is one merge per vertex —
// a count pass sizing the arrays exactly, then a fill pass — with no
// edge list and no sort. A symmetric graph is its own transpose: the
// in-CSR aliases the out-CSR (graphs are immutable).
func (g *Graph) Undirected() *Graph {
	n := g.NumVertices()
	u := &Graph{name: g.name, scale: g.ScaleFactor()}
	u.outOffsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		cnt, _ := mergeUnique(nil, g.OutNeighbors(VertexID(v)), g.InNeighbors(VertexID(v)), VertexID(v))
		u.outOffsets[v+1] = u.outOffsets[v] + int32(cnt)
	}
	u.outEdges = make([]VertexID, u.outOffsets[n])
	for v := 0; v < n; v++ {
		_, self := mergeUnique(u.outEdges[u.outOffsets[v]:u.outOffsets[v+1]],
			g.OutNeighbors(VertexID(v)), g.InNeighbors(VertexID(v)), VertexID(v))
		if self {
			u.selfEdges++
		}
	}
	u.inOffsets, u.inEdges = u.outOffsets, u.outEdges
	return u
}

// mergeUnique merges the sorted lists a and b without duplicates,
// returning the merged length and whether self is in it. It writes the
// result into dst unless dst is nil (the count pass).
func mergeUnique(dst, a, b []VertexID, self VertexID) (n int, hasSelf bool) {
	i, j := 0, 0
	last := VertexID(-1)
	for i < len(a) || j < len(b) {
		var x VertexID
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			x = a[i]
			i++
		} else {
			x = b[j]
			j++
		}
		if x == last {
			continue
		}
		last = x
		if dst != nil {
			dst[n] = x
		}
		if x == self {
			hasSelf = true
		}
		n++
	}
	return n, hasSelf
}

// WithoutSelfEdges returns a copy of g with self-edges removed. GraphLab
// (PowerGraph) cannot represent self-edges (paper §3.1.1); the GAS engine
// uses this to mirror that limitation. Each CSR direction is copied
// without its self entries — one pass, no Builder — so neighbour runs
// stay sorted and duplicate edges are kept.
func (g *Graph) WithoutSelfEdges() *Graph {
	if g.selfEdges == 0 {
		return g
	}
	c := &Graph{name: g.name, scale: g.ScaleFactor()}
	c.outOffsets, c.outEdges = dropSelf(g.outOffsets, g.outEdges, g.selfEdges)
	c.inOffsets, c.inEdges = dropSelf(g.inOffsets, g.inEdges, g.selfEdges)
	return c
}

// dropSelf copies one CSR direction without its self entries.
func dropSelf(off []int32, edges []VertexID, selfEdges int) ([]int32, []VertexID) {
	outOff := make([]int32, len(off))
	out := make([]VertexID, 0, len(edges)-selfEdges)
	for v := 0; v+1 < len(off); v++ {
		for _, w := range edges[off[v]:off[v+1]] {
			if w != VertexID(v) {
				out = append(out, w)
			}
		}
		outOff[v+1] = int32(len(out))
	}
	return outOff, out
}
