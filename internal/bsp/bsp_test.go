package bsp

import (
	"math"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/graph"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
	"graphbench/internal/singlethread"
)

// testProfile is a fast, featureless profile for unit tests.
var testProfile = sim.Profile{
	Name: "test", EdgeOpsPerSec: 1e9, VertexScanNs: 1, MsgCPUNs: 1,
	MsgBytes: 12, MsgMemBytes: 16,
}

func runOn(t *testing.T, g *graph.Graph, m int, cfg Config) *Output {
	t.Helper()
	cluster := sim.NewSize(m)
	cut := partition.EdgeCut{M: m, Seed: 7}
	cfg.Graph = g
	cfg.Scale = 1
	cfg.M = m
	cfg.MachineOf = cut.MachineOf
	if cfg.Profile == nil {
		cfg.Profile = &testProfile
	}
	out, err := Run(cluster, cfg)
	if err != nil {
		t.Fatalf("bsp.Run failed: %v", err)
	}
	return out
}

func TestPageRankMatchesSingleThread(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 400_000, Seed: 1})
	want, wantIters, _ := singlethread.PageRank(g, 0.15, 0.01, 0)

	out := runOn(t, g, 4, Config{
		Program:        &PageRankProgram{Damping: 0.15},
		Combine:        SumCombine,
		ScanAll:        true,
		StopDeltaBelow: 0.01,
	})
	if out.Supersteps != wantIters {
		t.Fatalf("iterations = %d, want %d", out.Supersteps, wantIters)
	}
	for v := range want {
		if math.Abs(out.Values[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, out.Values[v], want[v])
		}
	}
}

func TestPageRankFixedIterations(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 600_000, Seed: 1})
	want, _, _ := singlethread.PageRank(g, 0.15, 0, 5)
	out := runOn(t, g, 2, Config{
		Program:         &PageRankProgram{Damping: 0.15},
		Combine:         SumCombine,
		FixedSupersteps: 5,
	})
	if out.Supersteps != 5 {
		t.Fatalf("supersteps = %d, want 5", out.Supersteps)
	}
	for v := range want {
		if math.Abs(out.Values[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, out.Values[v], want[v])
		}
	}
}

func TestWCCMatchesOracle(t *testing.T) {
	for _, name := range []datasets.Name{datasets.Twitter, datasets.UK, datasets.WRN} {
		g := datasets.Generate(name, datasets.Options{Scale: 600_000, Seed: 2})
		want := singlethread.WCCReference(g)
		out := runOn(t, g, 4, Config{
			Program:        WCCProgram{},
			Combine:        MinCombine,
			CombineFrom:    1,
			UseInNeighbors: true,
		})
		labels := LabelsFromValues(out.Values)
		for v := range want {
			if labels[v] != want[v] {
				t.Fatalf("%s: label[%d] = %d, want %d", name, v, labels[v], want[v])
			}
		}
	}
}

func TestSSSPMatchesOracle(t *testing.T) {
	g := datasets.Generate(datasets.WRN, datasets.Options{Scale: 800_000, Seed: 1})
	src := datasets.SourceVertex(g, 42)
	want := graph.BFSDistances(g, src)
	out := runOn(t, g, 4, Config{
		Program: &SSSPProgram{Source: src},
		Combine: MinCombine,
	})
	dist := DistancesFromValues(out.Values)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestKHopMatchesOracle(t *testing.T) {
	g := datasets.Generate(datasets.UK, datasets.Options{Scale: 600_000, Seed: 1})
	src := datasets.SourceVertex(g, 42)
	want, _ := singlethread.KHop(g, src, 3)
	out := runOn(t, g, 4, Config{
		Program: &KHopProgram{Source: src, K: 3},
		Combine: MinCombine,
	})
	dist := DistancesFromValues(out.Values)
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
	// K-hop supersteps are bounded by K+1 regardless of diameter.
	if out.Supersteps > 4 {
		t.Fatalf("khop took %d supersteps, want <= 4", out.Supersteps)
	}
}

func TestCombinerReducesMessagesOnWire(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 400_000, Seed: 1})
	run := func(combine func(a, b float64) float64) int64 {
		cluster := sim.NewSize(4)
		cut := partition.EdgeCut{M: 4, Seed: 7}
		_, err := Run(cluster, Config{
			Graph: g, Scale: 1, M: 4, MachineOf: cut.MachineOf,
			Profile: &testProfile, Program: &PageRankProgram{Damping: 0.15},
			Combine: combine, FixedSupersteps: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cluster.TotalNetBytes()
	}
	with := run(SumCombine)
	without := run(nil)
	if with >= without {
		t.Fatalf("combiner did not reduce network: %d >= %d", with, without)
	}
}

func TestScanAllChargesIdleVertices(t *testing.T) {
	// With ScanAll (Giraph) SSSP supersteps cost at least the full
	// vertex scan even when the frontier is one vertex (Table 6's
	// mechanism). Without it (Blogel) late supersteps are cheaper.
	g := datasets.Generate(datasets.WRN, datasets.Options{Scale: 800_000, Seed: 1})
	src := datasets.SourceVertex(g, 42)
	prof := testProfile
	prof.VertexScanNs = 1000

	cost := func(scanAll bool) float64 {
		cluster := sim.NewSize(4)
		cut := partition.EdgeCut{M: 4, Seed: 7}
		_, err := Run(cluster, Config{
			Graph: g, Scale: 1, M: 4, MachineOf: cut.MachineOf,
			Profile: &prof, Program: &SSSPProgram{Source: src},
			Combine: MinCombine, ScanAll: scanAll,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cluster.Clock()
	}
	if all, active := cost(true), cost(false); all <= active {
		t.Fatalf("ScanAll total %v not above active-only %v", all, active)
	}
}

func TestTimeoutPropagates(t *testing.T) {
	g := datasets.Generate(datasets.WRN, datasets.Options{Scale: 800_000, Seed: 1})
	src := datasets.SourceVertex(g, 42)
	cfg := sim.NewConfig(2)
	cfg.Timeout = 0.5 // absurdly small: force TO mid-run
	cluster := sim.New(cfg)
	cut := partition.EdgeCut{M: 2, Seed: 7}
	prof := testProfile
	prof.SuperstepFixed = 0.05
	out, err := Run(cluster, Config{
		Graph: g, Scale: 1, M: 2, MachineOf: cut.MachineOf,
		Profile: &prof, Program: &SSSPProgram{Source: src}, Combine: MinCombine,
	})
	if sim.StatusOf(err) != sim.TO {
		t.Fatalf("expected TO, got %v", err)
	}
	if out.Supersteps >= graph.EstimateDiameter(g, 1, 1) {
		t.Fatalf("run did not abort early: %d supersteps", out.Supersteps)
	}
}

func TestOOMOnMessageBuffers(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 400_000, Seed: 1})
	cluster := sim.NewSize(2)
	cut := partition.EdgeCut{M: 2, Seed: 7}
	prof := testProfile
	prof.MsgMemBytes = 16
	_, err := Run(cluster, Config{
		Graph: g, Scale: 1e9, M: 2, MachineOf: cut.MachineOf, // absurd scale: buffers blow up
		Profile: &prof, Program: &PageRankProgram{Damping: 0.15},
		FixedSupersteps: 3,
	})
	if sim.StatusOf(err) != sim.OOM {
		t.Fatalf("expected OOM, got %v", err)
	}
}

func TestIterStatsRecorded(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 600_000, Seed: 1})
	out := runOn(t, g, 2, Config{
		Program: &PageRankProgram{Damping: 0.15}, Combine: SumCombine,
		FixedSupersteps: 4, RecordIterStats: true,
	})
	if len(out.IterStats) != 5 { // superstep 0 + 4 iterations
		t.Fatalf("got %d iter stats, want 5", len(out.IterStats))
	}
	for _, st := range out.IterStats {
		if st.Active == 0 {
			t.Fatalf("iteration %d recorded 0 active vertices", st.Iteration)
		}
		if st.Seconds <= 0 {
			t.Fatalf("iteration %d recorded non-positive time", st.Iteration)
		}
	}
}

func TestMessagesCounted(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 600_000, Seed: 1})
	out := runOn(t, g, 2, Config{
		Program: &PageRankProgram{Damping: 0.15}, Combine: SumCombine,
		FixedSupersteps: 2,
	})
	// Each of 3 compute supersteps (0,1,2) sends ~|E| messages.
	minWant := float64(g.NumEdges()) * 2
	if out.Messages < minWant {
		t.Fatalf("messages = %v, want >= %v", out.Messages, minWant)
	}
}

// TestRunRefusesMachinesItCannotTellApart: the merge pass records a
// sender machine in two bytes; a larger cluster is an error, not a
// silently aliased combiner.
func TestRunRefusesMachinesItCannotTellApart(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 2_000_000, Seed: 1})
	const m = maxMachines + 1
	_, err := Run(sim.NewSize(m), Config{
		Graph: g, Scale: 1, M: m, MachineOf: partition.EdgeCut{M: m, Seed: 7}.MachineOf,
		Profile: &testProfile, Program: &PageRankProgram{Damping: 0.15}, Combine: SumCombine,
	})
	if err == nil {
		t.Fatalf("a run on %d machines was accepted", m)
	}
}
