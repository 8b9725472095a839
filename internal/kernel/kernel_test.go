package kernel

import (
	"errors"
	"reflect"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/par"
	"graphbench/internal/singlethread"
)

func twitter(t *testing.T) (*graph.Graph, graph.VertexID) {
	t.Helper()
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 50_000, Seed: 1})
	return g, datasets.SourceVertex(g, 42)
}

// decoded is the typed output FullScanRounds' value plane stands for.
func decoded(k engine.Kind, values []float64) any {
	var res engine.Result
	res.SetOutputs(k, values)
	switch k {
	case engine.PageRank:
		return res.Ranks
	case engine.WCC, engine.LPA:
		return res.Labels
	}
	return res.Dist
}

// TestFullScanRoundsMatchOracles: the round loop computes exactly what
// the single-thread oracles compute, in the oracle's number of rounds
// where it has one, for every workload it serves.
func TestFullScanRoundsMatchOracles(t *testing.T) {
	g, src := twitter(t)
	pr, lpa := engine.NewPageRank(), engine.NewLPA()
	ranks, prIters, _ := singlethread.PageRank(g, pr.Damping, pr.Tolerance, 0)
	ranks3, _, _ := singlethread.PageRank(g, pr.Damping, 0, 3)
	sssp, _ := singlethread.SSSP(g, src)
	khop, _ := singlethread.KHop(g, src, 3)
	u := g.Simple()

	for _, tc := range []struct {
		name   string
		work   *graph.Graph
		w      engine.Workload
		rounds int // 0: as many as convergence takes
		want   any
	}{
		{"pagerank", g, pr, prIters, ranks},
		{"pagerank-3", g, engine.NewPageRankIters(3), 3, ranks3},
		{"wcc", g.Undirected(), engine.NewWCC(), 0, singlethread.WCCReference(g)},
		{"sssp", g, engine.NewSSSP(src), 0, sssp},
		{"khop", g, engine.NewKHop(src), 3, khop},
		{"lpa", u, lpa, lpa.LPAIterations(), singlethread.LPAOnSimple(u, lpa.LPAIterations())},
	} {
		var lastMsgs float64
		values, iters, err := FullScanRounds(tc.work, tc.w, src, func(_ int, msgs float64, _ int) error {
			lastMsgs = msgs
			return nil
		})
		if err != nil || (tc.rounds > 0 && iters != tc.rounds) {
			t.Errorf("%s: %d rounds (err %v), want %d", tc.name, iters, err, tc.rounds)
		}
		if tc.w.Kind == engine.LPA && lastMsgs != float64(u.NumEdges()) {
			t.Errorf("lpa: a round reported %v messages, the view has %d edges", lastMsgs, u.NumEdges())
		}
		if !reflect.DeepEqual(decoded(tc.w.Kind, values), tc.want) {
			t.Errorf("%s: output differs from the oracle", tc.name)
		}
	}
}

// TestFullScanRoundsStopOnChargeError: a failed charge ends the loop
// after that round, with the values of the rounds completed.
func TestFullScanRoundsStopOnChargeError(t *testing.T) {
	g, src := twitter(t)
	twoHops, _ := singlethread.KHop(g, src, 2)
	u := g.Simple()
	boom := errors.New("boom")
	for _, tc := range []struct {
		work *graph.Graph
		w    engine.Workload
		want any // the oracle's output after two rounds
	}{
		{g, engine.NewSSSP(src), twoHops},
		{u, engine.NewLPA(), singlethread.LPAOnSimple(u, 2)},
	} {
		var msgs float64
		values, iters, err := FullScanRounds(tc.work, tc.w, src, func(iter int, m float64, changed int) error {
			msgs = m
			if iter == 2 {
				return boom
			}
			return nil
		})
		if err != boom || iters != 2 {
			t.Fatalf("%s: stopped after %d rounds with %v, want 2 rounds and the charge error", tc.w.Kind, iters, err)
		}
		if msgs <= 0 || !reflect.DeepEqual(decoded(tc.w.Kind, values), tc.want) {
			t.Errorf("%s: round 2 reported %v messages; values equal the oracle's after two rounds: %v",
				tc.w.Kind, msgs, reflect.DeepEqual(decoded(tc.w.Kind, values), tc.want))
		}
	}
}

// TestShardedKernelsBitIdentical: the sharded sweeps produce the serial
// oracles' outputs and counts at every pool size.
func TestShardedKernelsBitIdentical(t *testing.T) {
	g, _ := twitter(t)
	o, rank := graph.ForwardOrient(g)
	wantCounts, wantHits, wantCands := singlethread.ForwardCountTriangles(o, rank)
	u := g.Simple()
	wantLabels := singlethread.LPAOnSimple(u, 4)
	wantRanks, _, _ := singlethread.PageRank(g, 0.15, 0, 5)
	foreign := func(u, prober graph.VertexID) bool { return u%2 != prober%2 }
	var wantShips int64

	for _, workers := range []int{1, 3, 8} {
		pool := par.New(workers)
		counts, cands, hits, ships := ForwardTriangles(pool, o, rank, foreign)
		if !reflect.DeepEqual(counts, wantCounts) || cands != wantCands || hits != wantHits {
			t.Errorf("workers=%d: triangles differ from the oracle (cands %d/%d, hits %d/%d)", workers, cands, wantCands, hits, wantHits)
		}
		if workers == 1 {
			wantShips = ships
		}
		if ships != wantShips || ships <= 0 || ships >= cands {
			t.Errorf("workers=%d: %d shipped candidates, want %d (of %d)", workers, ships, wantShips, cands)
		}

		rounds := 0
		labels, err := LPARounds(pool, u, 4, func(it, updates int) error { rounds = it; return nil })
		var res engine.Result
		res.SetOutputs(engine.LPA, labels)
		if err != nil || rounds != 4 || !reflect.DeepEqual(res.Labels, wantLabels) {
			t.Errorf("workers=%d: lpa ran %d rounds (err %v), labels equal: %v", workers, rounds, err, reflect.DeepEqual(res.Labels, wantLabels))
		}

		ranks := make([]float64, g.NumVertices())
		for v := range ranks {
			ranks[v] = 1
		}
		pr := NewPageRank(pool, par.PlanPrefix(g.WorkPrefix(), workers), g, 0.15, ranks, make([]float64, len(ranks)))
		for i := 0; i < 5; i++ {
			pr.Round()
		}
		if !reflect.DeepEqual(ranks, wantRanks) {
			t.Errorf("workers=%d: sharded pagerank differs from the oracle", workers)
		}
		pool.Close()
	}
}
