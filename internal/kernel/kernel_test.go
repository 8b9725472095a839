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

func noCharge(int, float64, int) error { return nil }

// TestFullScanRoundsMatchOracles: the round loop computes exactly what
// the single-thread oracles compute, for every workload it serves.
func TestFullScanRoundsMatchOracles(t *testing.T) {
	g, src := twitter(t)
	var res engine.Result

	w := engine.NewPageRank()
	values, iters, err := FullScanRounds(g, w, src, noCharge)
	want, wantIters, _ := singlethread.PageRank(g, w.Damping, w.Tolerance, 0)
	if err != nil || iters != wantIters || !reflect.DeepEqual(values, want) {
		t.Errorf("pagerank: %d rounds (err %v), oracle %d; ranks equal: %v", iters, err, wantIters, reflect.DeepEqual(values, want))
	}
	if _, iters, _ = FullScanRounds(g, engine.NewPageRankIters(3), src, noCharge); iters != 3 {
		t.Errorf("fixed-iteration pagerank ran %d rounds, want 3", iters)
	}

	values, _, _ = FullScanRounds(g.Undirected(), engine.NewWCC(), src, noCharge)
	res.SetOutputs(engine.WCC, values)
	if !reflect.DeepEqual(res.Labels, singlethread.WCCReference(g)) {
		t.Error("wcc labels differ from the oracle")
	}

	values, _, _ = FullScanRounds(g, engine.NewSSSP(src), src, noCharge)
	res.SetOutputs(engine.SSSP, values)
	if dist, _ := singlethread.SSSP(g, src); !reflect.DeepEqual(res.Dist, dist) {
		t.Error("sssp distances differ from the oracle")
	}

	values, iters, _ = FullScanRounds(g, engine.NewKHop(src), src, noCharge)
	res.SetOutputs(engine.KHop, values)
	if dist, _ := singlethread.KHop(g, src, 3); iters != 3 || !reflect.DeepEqual(res.Dist, dist) {
		t.Errorf("khop: %d rounds, distances equal: %v", iters, reflect.DeepEqual(res.Dist, dist))
	}
}

// TestFullScanRoundsStopOnChargeError: a failed charge ends the loop
// after that round, with the values of the rounds completed.
func TestFullScanRoundsStopOnChargeError(t *testing.T) {
	g, src := twitter(t)
	boom := errors.New("boom")
	var msgs float64
	values, iters, err := FullScanRounds(g, engine.NewSSSP(src), src, func(iter int, m float64, changed int) error {
		msgs = m
		if iter == 2 {
			return boom
		}
		return nil
	})
	if err != boom || iters != 2 {
		t.Fatalf("stopped after %d rounds with %v, want 2 rounds and the charge error", iters, err)
	}
	if msgs <= 0 || values[src] != 0 {
		t.Errorf("round 2 reported %v messages, source distance %v", msgs, values[src])
	}
}

// TestShardedKernelsBitIdentical: the sharded sweeps produce the serial
// oracles' outputs and counts at every pool size.
func TestShardedKernelsBitIdentical(t *testing.T) {
	g, _ := twitter(t)
	o, rank := graph.ForwardOrient(g)
	wantCounts, wantHits, wantCands := singlethread.ForwardCountTriangles(o, rank)
	u := g.Simple()
	wantLabels, _ := singlethread.LPAOnSimple(u, 4, nil)
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
