package bsp

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	goruntime "runtime" // the package's own runtime type shadows it
	"runtime/debug"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/par"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
)

// poison overwrites every buffer of the arena, to its full capacity and
// with its length left there, with values no run produces.
func poison(a *arena) {
	fill := func(b *bucket) {
		b.dst, b.srcM, b.val = b.dst[:cap(b.dst)], b.srcM[:cap(b.srcM)], b.val[:cap(b.val)]
		for i := range b.dst {
			b.dst[i] = math.MaxInt32
		}
		for i := range b.srcM {
			b.srcM[i] = math.MaxInt32
		}
		for i := range b.val {
			b.val[i] = math.NaN()
		}
	}
	a.buckets = a.buckets[:cap(a.buckets)]
	for i := range a.buckets {
		fill(&a.buckets[i])
	}
	a.senders, a.recv = a.senders[:cap(a.senders)], a.recv[:cap(a.recv)]
	for _, lists := range [][][]graph.VertexID{a.senders, a.recv} {
		for i := range lists {
			lists[i] = lists[i][:cap(lists[i])]
			for j := range lists[i] {
				lists[i][j] = math.MaxInt32
			}
		}
	}
	a.inVals, a.nextVals = a.inVals[:cap(a.inVals)], a.nextVals[:cap(a.nextVals)]
	for _, vals := range [][]float64{a.inVals, a.nextVals} {
		for i := range vals {
			vals[i] = math.NaN()
		}
	}
	a.mach = a.mach[:cap(a.mach)]
	for i := range a.mach {
		a.mach[i] = math.MaxUint16
	}
	a.touched = a.touched[:cap(a.touched)]
	for i := range a.touched {
		a.touched[i] = math.MaxInt32
	}
	for k := range a.fronts { // every vertex a member, past any fixture's count
		a.fronts[k].Resize(1 << 16)
		for v := 0; v < 1<<16; v++ {
			a.fronts[k].Add(graph.VertexID(v), 1)
		}
	}
}

// panicAt panics in one vertex's Compute, mid-run.
type panicAt struct {
	Program
	superstep int
	v         graph.VertexID
}

func (p panicAt) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == p.superstep && ctx.Vertex() == p.v {
		panic("injected compute panic")
	}
	p.Program.Compute(ctx, msgs)
}

// killOnce injects one recoverable machine failure at a boundary.
type killOnce struct {
	at    int
	fired bool
}

func (k *killOnce) NextFault(boundary, machines int) *sim.Failure {
	if k.fired || boundary != k.at {
		return nil
	}
	k.fired = true
	return &sim.Failure{Status: sim.Killed, Machine: 1, Detail: "injected", Recoverable: true}
}

// TestLeasedArenaIsNeverRead runs a sequence of unlike runs on one pool
// — large then small, small then large, another graph, failed runs of
// each kind followed by good ones, a rollback-replay — scribbling over
// the leased arena between any two, and holds each against the same run
// on a pool of its own: outputs, stats and errors are equal bit for bit,
// so no run reads what another left behind.
func TestLeasedArenaIsNeverRead(t *testing.T) {
	const m = 4
	cut := partition.EdgeCut{M: m, Seed: 7}
	small := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 600_000, Seed: 1})
	large := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 100_000, Seed: 1})
	road := datasets.Generate(datasets.WRN, datasets.Options{Scale: 2_000_000, Seed: 1})
	base := func(g *graph.Graph) Config {
		return Config{Graph: g, Scale: 1, M: m, MachineOf: cut.MachineOf, Profile: &testProfile, RecordIterStats: true}
	}
	pagerank := func(g *graph.Graph) Config {
		c := base(g)
		c.Program, c.Combine, c.FixedSupersteps = &PageRankProgram{Damping: 0.15}, SumCombine, 6
		c.Direction = engine.DirectionPush // every superstep through the arena
		return c
	}
	wcc := func(g *graph.Graph) Config {
		c := base(g)
		c.Program, c.Combine, c.CombineFrom, c.UseInNeighbors = WCCProgram{}, MinCombine, 1, true
		return c
	}
	sssp := func(g *graph.Graph) Config {
		c := base(g)
		c.Program, c.Combine = &SSSPProgram{Source: datasets.SourceVertex(g, 42)}, MinCombine
		return c
	}
	gov, err := govern.New(4096, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer gov.Close()

	type step struct {
		name    string
		cfg     Config
		cluster func() *sim.Cluster // nil: the paper's machines
		fails   func(error) bool    // nil: the run succeeds
	}
	tinyMemory := func() *sim.Cluster {
		c := sim.NewConfig(m)
		c.MemoryBytes = 1 << 10
		return sim.New(c)
	}
	killed := func() *sim.Cluster {
		c := sim.NewSize(m)
		c.SetInjector(&killOnce{at: 3})
		return c
	}
	withCheckpoints := pagerank(small)
	withCheckpoints.CheckpointEvery = 2
	governed := wcc(small)
	governed.Governor = gov
	panicking := pagerank(small)
	panicking.Program = panicAt{panicking.Program, 2, graph.VertexID(small.NumVertices() / 2)}
	steps := []step{
		{name: "large pagerank", cfg: pagerank(large)},
		{name: "small pagerank after large", cfg: pagerank(small)},
		{name: "large wcc after small", cfg: wcc(large)},
		{name: "sssp on another graph", cfg: sssp(road)},
		{name: "modeled OOM", cfg: pagerank(large), cluster: tinyMemory,
			fails: func(err error) bool { return sim.StatusOf(err) == sim.OOM }},
		{name: "wcc after the OOM", cfg: wcc(small)},
		{name: "budget rejection", cfg: governed,
			fails: func(err error) bool { return errors.Is(err, govern.ErrBudget) }},
		{name: "sssp after the rejection", cfg: sssp(small)},
		{name: "worker panic", cfg: panicking,
			fails: func(err error) bool { return err != nil && err.Error() == "panic" }},
		{name: "pagerank after the panic", cfg: pagerank(small)},
		{name: "rollback and replay", cfg: withCheckpoints, cluster: killed},
		{name: "wcc after the replay", cfg: wcc(large)},
	}

	// run returns the output and the error, a recovered panic as an error.
	run := func(pool *par.Pool, s step) (out *Output, err error) {
		cluster := sim.NewSize(m)
		if s.cluster != nil {
			cluster = s.cluster()
		}
		s.cfg.Pool = pool
		defer func() {
			if r := recover(); r != nil {
				out, err = nil, errors.New("panic")
			}
		}()
		return Run(cluster, s.cfg)
	}

	for _, shards := range []int{1, 4} {
		shared := par.New(shards)
		defer shared.Close()
		held := par.Lease[arena](shared) // the test keeps it from the collector
		for _, s := range steps {
			label := fmt.Sprintf("shards=%d %s", shards, s.name)
			fresh := par.New(shards)
			want, wantErr := run(fresh, s)
			fresh.Close()
			poison(held)
			got, gotErr := run(shared, s)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s: error %v on the shared pool, %v on a fresh one", label, gotErr, wantErr)
			}
			if (s.fails == nil) != (gotErr == nil) || (s.fails != nil && !s.fails(gotErr)) {
				t.Fatalf("%s: unexpected outcome: %v", label, gotErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: output differs from the fresh pool's", label)
			}
			if s.name == "rollback and replay" && got.Recovery.Failures != 1 {
				t.Fatalf("%s: %d failures survived, want 1", label, got.Recovery.Failures)
			}
		}
		if par.Lease[arena](shared) != held || cap(held.nextVals) == 0 {
			t.Fatalf("shards=%d: the runs did not share one arena", shards)
		}
	}
}

// messagePlaneFixture is the bench fixture (bench_test.go): twitter at
// Scale 2000, 20,826 vertices and about 750k edges.
func messagePlaneFixture(m int, pool *par.Pool) map[string]Config {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 2000, Seed: 1})
	base := Config{Graph: g, Scale: 1, M: m, MachineOf: partition.EdgeCut{M: m, Seed: 7}.MachineOf,
		Profile: &testProfile, Shards: 1, Pool: pool}
	pagerank, wcc, sssp := base, base, base
	pagerank.Program, pagerank.Combine, pagerank.FixedSupersteps = &PageRankProgram{Damping: 0.15}, SumCombine, 10
	wcc.Program, wcc.Combine, wcc.CombineFrom, wcc.UseInNeighbors = WCCProgram{}, MinCombine, 1, true
	sssp.Program, sssp.Combine = &SSSPProgram{Source: datasets.SourceVertex(g, 42)}, MinCombine
	return map[string]Config{"pagerank": pagerank, "wcc": wcc, "sssp": sssp}
}

// allocatedBy returns the bytes one Run allocates.
func allocatedBy(t *testing.T, m int, cfg Config) uint64 {
	t.Helper()
	cluster := sim.NewSize(m)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if _, err := Run(cluster, cfg); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunAllocationFlatInMachines pins what the per-destination fold
// bought: the bytes a run allocates follow the graph, not the modeled
// cluster. The combiner the fold replaced kept 8 bytes per (machine,
// vertex) — 8× more at 128 machines than at 16.
func TestRunAllocationFlatInMachines(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	at16, at128 := messagePlaneFixture(16, nil), messagePlaneFixture(128, nil)
	for name := range at16 {
		a, b := allocatedBy(t, 16, at16[name]), allocatedBy(t, 128, at128[name])
		t.Logf("%s: %.1f MB at 16 machines, %.1f MB at 128", name, float64(a)/1e6, float64(b)/1e6)
		if d := math.Abs(float64(b) - float64(a)); d > 0.10*float64(a) {
			t.Errorf("%s: a run allocates %d bytes at 128 machines, %d at 16: more than 10%% apart", name, b, a)
		}
	}
}

// TestWarmArenaRunAllocation: the second of two runs on one pool finds
// the message plane grown and allocates only its O(V) state.
func TestWarmArenaRunAllocation(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pool := par.New(1)
	defer pool.Close()
	held := par.Lease[arena](pool)
	for name, cfg := range messagePlaneFixture(16, pool) {
		cold, warm := allocatedBy(t, 16, cfg), allocatedBy(t, 16, cfg)
		t.Logf("%s: %.1f MB cold, %.2f MB warm", name, float64(cold)/1e6, float64(warm)/1e6)
		if warm > 2<<20 {
			t.Errorf("%s: the second run on the pool allocates %d bytes, budget 2 MiB", name, warm)
		}
	}
	goruntime.KeepAlive(held)
}

// collectAt forces collections from inside a superstep.
type collectAt struct {
	Program
	superstep int
}

func (p collectAt) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == p.superstep && ctx.Vertex() == 0 {
		goruntime.GC()
		goruntime.GC()
	}
	p.Program.Compute(ctx, msgs)
}

// TestArenaLifetime: a run holds its arena across collections forced
// while it is in flight and hands it back grown; with no run holding
// it, the next collection sheds it.
func TestArenaLifetime(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // only the collections below
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 400_000, Seed: 1})
	pool := par.New(1)
	defer pool.Close()
	cfg := Config{Graph: g, Scale: 1, M: 4, MachineOf: partition.EdgeCut{M: 4, Seed: 7}.MachineOf,
		Profile: &testProfile, Program: collectAt{&PageRankProgram{Damping: 0.15}, 2},
		Combine: SumCombine, FixedSupersteps: 4, Direction: engine.DirectionPush, Pool: pool}
	want, err := Run(sim.NewSize(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if grown := cap(par.Lease[arena](pool).nextVals); grown < g.NumEdges() {
		t.Fatalf("after a run the pool's arena holds %d values, want the run's %d-message plane", grown, g.NumEdges())
	}
	got, err := Run(sim.NewSize(4), cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("the run on the warm arena differs (err %v)", err)
	}
	goruntime.GC()
	goruntime.GC()
	if a := par.Lease[arena](pool); cap(a.nextVals) != 0 || cap(a.buckets) != 0 {
		t.Fatalf("an idle pool kept its arena across two collections (%d values)", cap(a.nextVals))
	}
}
