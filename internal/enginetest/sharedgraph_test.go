package enginetest

import (
	"runtime"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/mapreduce"
	"graphbench/internal/par"
	"graphbench/internal/sim"
)

// TestRunDoesNotCopyTheGraph: engines compute on the prepared graph, so
// a run whose algorithm needs only O(V) state allocates less than the
// fixture's own edge arrays occupy (two int32 arrays of E entries). A
// Hadoop k-hop on the twitter fixture (E ≈ 35·V) is such a run; any
// private copy of the CSR puts it over.
func TestRunDoesNotCopyTheGraph(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	f := Prepare(t, datasets.Twitter, datasets.ScaleUpScale)
	edgeBytes := uint64(8 * f.Graph.NumEdges())
	w := engine.NewKHop(f.Dataset.Source)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunOK(t, mapreduce.New(), f, 16, w, engine.Options{Shards: 1})
	runtime.ReadMemStats(&after)
	VerifyKHop(t, f, res, w.K)

	if got := after.TotalAlloc - before.TotalAlloc; got >= edgeBytes {
		t.Fatalf("Hadoop k-hop allocated %d bytes; the fixture's edge arrays are %d (V=%d, E=%d)",
			got, edgeBytes, f.Graph.NumVertices(), f.Graph.NumEdges())
	}
}

// fnvFold folds the elements of s into the FNV-1a style running hash h.
func fnvFold[T ~int32 | ~int64](h uint64, s []T) uint64 {
	for _, x := range s {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

// csrDigest hashes every array of the graph's CSR.
func csrDigest(g *graph.Graph) uint64 {
	c := g.RawCSR()
	h := fnvFold(14695981039346656037, c.OutOffsets)
	h = fnvFold(h, c.OutEdges)
	h = fnvFold(h, c.InOffsets)
	h = fnvFold(h, c.InEdges)
	return fnvFold(h, c.WorkPrefix)
}

// TestPreparedGraphIsReadOnly: every run of every engine shares
// Dataset.Graph, and a snapshot-loaded fixture backs its arrays with a
// read-only mapping — a stray write there is a SIGSEGV, not a wrong
// answer. No engine may write the arrays, in core or out of core;
// derived views (self-edge strip, Undirected, ForwardOrient, vertex
// cuts, Voronoi blocks) must be new graphs. Run statuses are not this
// test's concern: failed runs share the graph too.
func TestPreparedGraphIsReadOnly(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("sequential runs compared by digest: the race build finds nothing more, 14x slower")
	}
	f := Prepare(t, datasets.UK, datasets.ScaleUpScale)
	want := csrDigest(f.Dataset.Graph)
	workloads := []engine.Workload{
		engine.NewPageRank(),
		engine.NewWCC(),
		engine.NewSSSP(f.Dataset.Source),
		engine.NewKHop(f.Dataset.Source),
		engine.NewTriangleCount(),
		engine.NewLPA(),
	}
	spilled := false

	for _, mk := range engineMakers() {
		for _, w := range workloads {
			gov, err := govern.New(oocBudget(w.Kind), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res := mk().Run(sim.NewSize(64), f.Dataset, w, engine.Options{Governor: gov})
			if err := gov.Close(); err != nil {
				t.Fatal(err)
			}
			// An engine that takes no governor has just done its only
			// kind of run; one that does has an ungoverned path too.
			if res.Govern != (govern.RunStats{}) {
				spilled = spilled || res.Govern.Spilled
				mk().Run(sim.NewSize(64), f.Dataset, w, engine.Options{})
			}
			if got := csrDigest(f.Dataset.Graph); got != want {
				t.Fatalf("%s/%s wrote the prepared graph: CSR digest %x, want %x", mk().Name(), w.Kind, got, want)
			}
		}
	}
	if !spilled {
		t.Fatal("no governed run reached the out-of-core tier")
	}
}
