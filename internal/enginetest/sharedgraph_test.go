package enginetest

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"graphbench/internal/blogel"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/gas"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/mapreduce"
	"graphbench/internal/par"
	"graphbench/internal/partition"
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

// heldBlocks returns the GVD block structure d holds; it fails the test
// if none is held yet.
func heldBlocks(t *testing.T, d *engine.Dataset) *partition.Voronoi {
	t.Helper()
	return engine.View(d, partition.VoronoiOptions{}, 0, func() *partition.Voronoi {
		t.Fatal("the dataset holds no GVD blocks")
		return nil
	})
}

// sharedDigest hashes everything the runs of a fixture share: the
// prepared graph, its undirected view and its GVD blocks.
func sharedDigest(t *testing.T, d *engine.Dataset) uint64 {
	blocks := heldBlocks(t, d)
	h := csrDigest(d.Graph) ^ csrDigest(d.Undirected())
	h = fnvFold(h, blocks.BlockOf)
	for b, size := range blocks.BlockSizes {
		h = (h ^ uint64(size)) * 1099511628211
		// Map order is random; a sum of per-entry hashes is not.
		var edges uint64
		for nb, cnt := range blocks.BlockEdges[b] {
			edges += (uint64(nb)<<32 ^ uint64(cnt)) * 1099511628211
		}
		h = (h ^ edges) * 1099511628211
	}
	return h
}

// TestPreparedGraphIsReadOnly: every run of every engine shares
// Dataset.Graph and the views the dataset keeps of it (the undirected
// view, the GVD blocks, GraphLab's vertex cuts), and a snapshot-loaded
// fixture backs its arrays with a read-only mapping — a stray write
// there is a SIGSEGV, not a wrong answer. No engine may write what is
// shared, in core or out of core; what a run does change (the self-edge
// strip, ForwardOrient, a block packing's BlockMachine) must be its
// own. Run statuses are not this test's concern: failed runs share the
// graph too.
func TestPreparedGraphIsReadOnly(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("sequential runs compared by digest: the race build finds nothing more, 14x slower")
	}
	f := Prepare(t, datasets.UK, datasets.ScaleUpScale)
	blogel.NewB().Run(sim.NewSize(64), f.Dataset, engine.NewKHop(f.Dataset.Source), engine.Options{}) // builds the views
	want := sharedDigest(t, f.Dataset)
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
			if got := sharedDigest(t, f.Dataset); got != want {
				t.Fatalf("%s/%s wrote the prepared graph or a view of it: digest %x, want %x", mk().Name(), w.Kind, got, want)
			}
		}
	}
	if !spilled {
		t.Fatal("no governed run reached the out-of-core tier")
	}
}

// TestDerivedViewsBuiltOnce: the views a dataset keeps are work of the
// load phase — a function of the fixture and at most the machine count —
// so runs share them instead of rebuilding them: one undirected view,
// one GVD block structure (each run packs it onto its own machines),
// and per vertex-cut strategy one cut, for the machine count asked last.
func TestDerivedViewsBuiltOnce(t *testing.T) {
	f := Prepare(t, datasets.Twitter, datasets.ScaleUpScale)
	d := f.Dataset

	// Sixteen first callers coalesce onto one build, of the undirected
	// view and of any view.
	type testKey struct{}
	var builds atomic.Int32
	views := make([]*graph.Graph, 16)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = d.Undirected()
			engine.View(d, testKey{}, 0, func() *int { builds.Add(1); return new(int) })
		}()
	}
	wg.Wait()
	u := d.Undirected()
	for i, v := range views {
		if v != u {
			t.Fatalf("caller %d got its own undirected view", i)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("16 concurrent first callers built the view %d times", n)
	}

	// Hadoop's WCC reads the dataset's view: a run allocates less than
	// a view of its own would take.
	RunOK(t, mapreduce.New(), f, 16, engine.NewWCC(), engine.Options{Shards: 1})
	if !par.RaceEnabled {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := RunOK(t, mapreduce.New(), f, 16, engine.NewWCC(), engine.Options{Shards: 1})
		runtime.ReadMemStats(&after)
		VerifyWCC(t, f, res)
		if got, view := after.TotalAlloc-before.TotalAlloc, uint64(4*u.NumEdges()); got >= view {
			t.Fatalf("Hadoop WCC allocated %d bytes; an undirected view of its own is %d", got, view)
		}
	}
	if d.Undirected() != u {
		t.Fatal("a WCC run replaced the undirected view")
	}

	// Blogel-B at two cluster sizes: one block structure, never packed
	// itself; every packing owns its BlockMachine and shares the rest.
	RunOK(t, blogel.NewB(), f, 16, engine.NewWCC(), engine.Options{})
	blocks := heldBlocks(t, d)
	RunOK(t, blogel.NewB(), f, 32, engine.NewWCC(), engine.Options{})
	if heldBlocks(t, d) != blocks || d.Undirected() != u {
		t.Fatal("a second Blogel-B run rebuilt the GVD blocks or the undirected view")
	}
	if blocks.BlockMachine != nil {
		t.Fatal("a run packed the shared block structure in place")
	}
	p16, p32 := blocks.Pack(16), blocks.Pack(32)
	if &p16.BlockMachine[0] == &p32.BlockMachine[0] || &p16.BlockOf[0] != &blocks.BlockOf[0] {
		t.Fatal("a packing must own its BlockMachine and share BlockOf")
	}

	// One slot per vertex-cut strategy: another machine count replaces
	// the cut, so a dataset never holds two cuts of one kind however
	// many sizes clients ask for.
	cuts := 0
	cutFor := func(m int) *partition.VertexCut {
		return engine.View(d, partition.VCRandom, m, func() *partition.VertexCut {
			cuts++
			return partition.BuildVertexCut(d.Graph.WithoutSelfEdges(), m, partition.VCRandom, 7)
		})
	}
	for i, m := range []int{16, 32, 16} {
		if vc := cutFor(m); vc.M != m || cutFor(m) != vc || cuts != i+1 {
			t.Fatalf("cut for %d machines: M=%d, %d builds after %d distinct requests", m, vc.M, cuts, i+1)
		}
	}

	// A cut built after another size's is the cut a fresh fixture builds.
	fresh := Prepare(t, datasets.Twitter, datasets.ScaleUpScale)
	w := engine.NewPageRankIters(5)
	RunOK(t, gas.New(), f, 16, w, engine.Options{})
	got, want := RunOK(t, gas.New(), f, 32, w, engine.Options{}), RunOK(t, gas.New(), fresh, 32, w, engine.Options{})
	if !slices.Equal(got.Ranks, want.Ranks) || got.TotalTime() != want.TotalTime() ||
		got.ReplicationFactor != want.ReplicationFactor || got.NetBytes != want.NetBytes || got.MemTotal != want.MemTotal {
		t.Fatalf("GraphLab at 32 machines after a run at 16 differs from a fresh fixture's run:\n got %v %v %v\nwant %v %v %v",
			got.TotalTime(), got.ReplicationFactor, got.NetBytes, want.TotalTime(), want.ReplicationFactor, want.NetBytes)
	}
}
