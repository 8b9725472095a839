package graph_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/graph"
	"graphbench/internal/par"
)

// undirectedRef and withoutSelfEdgesRef are the Builder-built views the
// linear builders replaced; the property test holds the new ones to
// them array for array.
func undirectedRef(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices()).Dedupe(true)
	g.Edges(func(src, dst graph.VertexID) bool {
		b.AddEdge(src, dst)
		b.AddEdge(dst, src)
		return true
	})
	return b.Build()
}

func withoutSelfEdgesRef(g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	g.Edges(func(src, dst graph.VertexID) bool {
		if src != dst {
			b.AddEdge(src, dst)
		}
		return true
	})
	return b.Build()
}

func sameCSR(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	g, w := got.RawCSR(), want.RawCSR()
	if !slices.Equal(g.OutOffsets, w.OutOffsets) || !slices.Equal(g.OutEdges, w.OutEdges) ||
		!slices.Equal(g.InOffsets, w.InOffsets) || !slices.Equal(g.InEdges, w.InEdges) ||
		!slices.Equal(g.WorkPrefix, w.WorkPrefix) {
		t.Fatalf("%s: CSR arrays differ from the Builder-built reference", what)
	}
	if g.SelfEdges != w.SelfEdges {
		t.Fatalf("%s: SelfEdges = %d, reference %d", what, g.SelfEdges, w.SelfEdges)
	}
	if _, err := graph.FromCSR(g); err != nil {
		t.Fatalf("%s: FromCSR(RawCSR()): %v", what, err)
	}
}

// TestLinearViewsMatchBuilder: on random multigraphs — duplicate edges,
// self-edges, isolated vertices, no vertices at all, the zero Graph —
// Undirected and WithoutSelfEdges equal what a Builder makes of the
// same edges.
func TestLinearViewsMatchBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	graphs := []*graph.Graph{{}, graph.NewBuilder(0).Build(), graph.NewBuilder(5).Build()}
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(n).SetName("random").SetScaleFactor(3)
		// Endpoints drawn from a prefix leave the tail isolated; a small
		// range makes duplicates and self-edges common.
		span := 1 + rng.Intn(n)
		for e := rng.Intn(4 * n); e > 0; e-- {
			src, dst := graph.VertexID(rng.Intn(span)), graph.VertexID(rng.Intn(span))
			if rng.Intn(8) == 0 {
				dst = src
			}
			b.AddEdge(src, dst)
		}
		graphs = append(graphs, b.Build())
	}
	for _, g := range graphs {
		u := g.Undirected()
		sameCSR(t, "Undirected", u, undirectedRef(g))
		for v := 0; v < u.NumVertices(); v++ {
			if !slices.Equal(u.InNeighbors(graph.VertexID(v)), u.OutNeighbors(graph.VertexID(v))) {
				t.Fatalf("undirected view: in- and out-neighbours of %d differ", v)
			}
		}
		sameCSR(t, "WithoutSelfEdges", g.WithoutSelfEdges(), withoutSelfEdgesRef(g))
		sameCSR(t, "Simple", g.Simple(), withoutSelfEdgesRef(undirectedRef(g)))
		if u.Name() != g.Name() || u.ScaleFactor() != g.ScaleFactor() {
			t.Fatalf("undirected view lost name or scale: %q %v", u.Name(), u.ScaleFactor())
		}
	}
}

// TestLinearViewAllocBudget: Undirected allocates its offset array, its
// edge array (shared by both directions) and the header; the self-edge
// strip four arrays and the header. On the hostbench fixture (twitter at
// Scale 2000) the undirected view stays under 4.5 MB — the Builder-built
// one took 22.6 MB.
func TestLinearViewAllocBudget(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 2000, Seed: 1})
	var sink *graph.Graph
	if a := testing.AllocsPerRun(3, func() { sink = g.Undirected() }); a > 3 {
		t.Errorf("Undirected allocates %.0f objects, budget 3", a)
	}
	if a := testing.AllocsPerRun(3, func() { sink = g.WithoutSelfEdges() }); a > 5 {
		t.Errorf("WithoutSelfEdges allocates %.0f objects, budget 5", a)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sink = g.Undirected()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4_500_000 {
		t.Errorf("Undirected allocated %d bytes for %d undirected edges, budget 4.5 MB", got, sink.NumEdges())
	}
}
