package main

import (
	"fmt"
	"time"

	"graphbench/internal/blogel"
	"graphbench/internal/bsp"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
	"graphbench/internal/singlethread"
)

const (
	bspMachines      = 16
	pageRankSteps    = 10 // fixed supersteps of the PageRank legs
	pageRankDamping  = 0.15
	wrnSupersteps    = 500 // cap of the deep-traversal leg: wrn needs ~58k to converge
	oracleRepsInPass = 4   // the oracles are cheap; more samples per pass
)

// bspLeg is one configuration of a direct bsp.Run.
type bspLeg struct {
	name   string // bsp.<workload>.<direction>.<s1|sN>
	kind   engine.Kind
	dir    engine.Direction
	shards int
}

// bspLegs lists the twitter legs: {pagerank, wcc, sssp} × {auto, push}
// × {1 shard, one per CPU}.
func bspLegs(procs int) []bspLeg {
	var legs []bspLeg
	for _, k := range []engine.Kind{engine.PageRank, engine.WCC, engine.SSSP} {
		for _, d := range []engine.Direction{engine.DirectionAuto, engine.DirectionPush} {
			for _, s := range []int{1, procs} {
				dir, sh := "auto", "s1"
				if d == engine.DirectionPush {
					dir = "push"
				}
				if s != 1 {
					sh = "sN"
				}
				legs = append(legs, bspLeg{fmt.Sprintf("bsp.%s.%s.%s", k, dir, sh), k, d, s})
			}
		}
	}
	return legs
}

// bspConfig is the message-plane fixture of bench_test.go: the graph
// hash-cut over 16 machines under Blogel's cost profile, no engine
// around the runtime.
func bspConfig(g *graph.Graph, source graph.VertexID, l bspLeg) bsp.Config {
	cut := partition.EdgeCut{M: bspMachines, Seed: 7}
	cfg := bsp.Config{
		Graph: g, Scale: 1, M: bspMachines, MachineOf: cut.MachineOf, Profile: &blogel.Profile,
		Shards: l.shards, Direction: l.dir, Combine: bsp.MinCombine,
	}
	switch l.kind {
	case engine.PageRank:
		cfg.Program = &bsp.PageRankProgram{Damping: pageRankDamping}
		cfg.Combine = bsp.SumCombine
		cfg.FixedSupersteps = pageRankSteps
	case engine.WCC:
		cfg.Program = bsp.WCCProgram{}
		cfg.CombineFrom = 1
		cfg.UseInNeighbors = true
	case engine.SSSP:
		cfg.Program = &bsp.SSSPProgram{Source: source}
	}
	return cfg
}

// checkBSP holds a bsp.Run output against the oracle; distLimit caps
// the distances a superstep-bounded SSSP is answerable for.
func checkBSP(or *oracle, kind engine.Kind, out *bsp.Output, distLimit int32) error {
	switch kind {
	case engine.PageRank:
		want := or.pageRank(rankKey{false, pageRankDamping, 0, pageRankSteps})
		return checkRanks(out.Values, want, rankTolerance)
	case engine.WCC:
		return checkLabels(bsp.LabelsFromValues(out.Values), or.labels)
	default:
		return checkDistances(bsp.DistancesFromValues(out.Values), or.dist, distLimit)
	}
}

// bspCostWorkload times the shared BSP runtime directly, beside the
// single-thread oracles on the same graphs.
type bspCostWorkload struct {
	e    *env
	legs []bspLeg

	twitter, wrn        *graph.Graph
	twSource, wrnSource graph.VertexID
	twOracle, wrnOracle *oracle
}

func newBSPCost(e *env) workload {
	w := &bspCostWorkload{e: e, legs: append(bspLegs(e.procs), wrnLeg)}
	rotate(e.seed, w.legs)
	return w
}

func (w *bspCostWorkload) setUp() error {
	opt := datasets.Options{Scale: w.e.scale, Seed: graphSeed}
	w.twitter = datasets.Generate(datasets.Twitter, opt)
	w.wrn = datasets.Generate(datasets.WRN, opt)
	w.twSource = datasets.SourceVertex(w.twitter, 42)
	w.wrnSource = datasets.SourceVertex(w.wrn, 42)
	return nil
}

func (w *bspCostWorkload) tearDown() { w.twitter, w.wrn = nil, nil }

func (w *bspCostWorkload) prepare() error {
	w.twOracle = newOracle(w.twitter, w.twSource)
	w.wrnOracle = newOracle(w.wrn, w.wrnSource)
	return nil
}

var wrnLeg = bspLeg{"bsp.wrn_sssp.s1", engine.SSSP, engine.DirectionAuto, 1}

func (w *bspCostWorkload) measure(m *meter) {
	for pass := 0; m.more(pass); pass++ {
		t := time.Now()
		for _, l := range w.legs {
			if l == wrnLeg {
				w.runBSP(m, l, w.wrn, w.wrnSource, w.wrnOracle, wrnSupersteps)
			} else {
				w.runBSP(m, l, w.twitter, w.twSource, w.twOracle, 0)
			}
		}
		for i := 0; i < oracleRepsInPass; i++ {
			w.runOracles(m)
		}
		m.lat = append(m.lat, ms(time.Since(t)))
	}
	w.derive(m)
}

// runBSP executes one leg as one operation and checks its output.
func (w *bspCostWorkload) runBSP(m *meter, l bspLeg, g *graph.Graph, src graph.VertexID, or *oracle, maxSupersteps int) {
	cfg := bspConfig(g, src, l)
	cfg.MaxSupersteps = maxSupersteps
	var out *bsp.Output
	var err error
	t := time.Now()
	m.tr.do(m.tr.newOp(), 0, "bsp.run", func() { out, err = bsp.Run(sim.NewSize(bspMachines), cfg) })
	m.leg(l.name, ms(time.Since(t)))
	m.done++
	limit := int32(1<<31 - 1)
	if maxSupersteps > 0 {
		limit = int32(maxSupersteps)
	}
	if err == nil {
		err = checkBSP(or, l.kind, out, limit)
	}
	if err != nil {
		m.fail(fmt.Errorf("%s: %w", l.name, err))
	}
	m.yardstick(w.e.ref, l.shards)
}

// runOracles times the four single-thread baselines once each.
func (w *bspCostWorkload) runOracles(m *meter) {
	oracleRun := func(name string, fn func() error) {
		var err error
		t := time.Now()
		m.tr.do(m.tr.newOp(), 0, name, func() { err = fn() })
		m.leg(name, ms(time.Since(t)))
		m.done++
		if err != nil {
			m.fail(fmt.Errorf("%s: %w", name, err))
		}
	}
	oracleRun("singlethread.pagerank", func() error {
		r, _, _ := singlethread.PageRank(w.twitter, pageRankDamping, 0, pageRankSteps)
		return checkRanks(r, w.twOracle.pageRank(rankKey{false, pageRankDamping, 0, pageRankSteps}), 0)
	})
	oracleRun("singlethread.wcc", func() error {
		l, _ := singlethread.WCC(w.twitter)
		return checkLabels(l, w.twOracle.labels)
	})
	oracleRun("singlethread.sssp", func() error {
		d, _ := singlethread.SSSP(w.twitter, w.twSource)
		return checkDistances(d, w.twOracle.dist, 1<<31-1)
	})
	oracleRun("singlethread.wrn_sssp", func() error {
		d, _ := singlethread.SSSP(w.wrn, w.wrnSource)
		return checkDistances(d, w.wrnOracle.dist, 1<<31-1)
	})
}

// costRatios returns, per workload, the 1-shard auto bsp.Run median
// over the single-thread median on the same graph — COST turned on this
// runtime — from a leg-median lookup.
func costRatios(legMedian func(string) float64) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{"pagerank", "wcc", "sssp"} {
		out[k] = legMedian("bsp."+k+".auto.s1") / legMedian("singlethread."+k)
	}
	return out
}

// derive adds the numbers later issues quote by name.
func (w *bspCostWorkload) derive(m *meter) {
	cost := costRatios(m.legMedian)
	m.info = append(m.info,
		infoLine{"cost_ratio", geomean([]float64{cost["pagerank"], cost["wcc"], cost["sssp"]}), "x"},
		infoLine{"cost_ratio.pagerank", cost["pagerank"], "x"},
		infoLine{"cost_ratio.wcc", cost["wcc"], "x"},
		infoLine{"cost_ratio.sssp", cost["sssp"], "x"},
		infoLine{"medges_per_s", medgesPerSecond(w.twitter, m.legMedian("bsp.pagerank.auto.sN")), "1e6/s"},
		infoLine{"wrn_us_per_superstep", 1e3 * m.legMedian(wrnLeg.name) / wrnSupersteps, "us"},
	)
}

// medgesPerSecond is PageRank's edge-visit rate: ten supersteps over
// every edge in ms milliseconds.
func medgesPerSecond(g *graph.Graph, ms float64) float64 {
	return float64(pageRankSteps) * float64(g.NumEdges()) / 1e6 / (ms / 1e3)
}
