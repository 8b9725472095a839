package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/sim"
	"graphbench/internal/singlethread"
)

// oracle holds the single-thread truths of one graph. Everything is
// computed once, outside any measured window; PageRank vectors are
// cached per stopping rule because the systems of the grid stop
// differently (tolerance vs fixed 30 iterations) and GraphLab drops
// self-edges (§3.1.1).
type oracle struct {
	g      *graph.Graph
	clean  *graph.Graph // g without self-edges, built on first GraphLab check
	source graph.VertexID

	labels []graph.VertexID // canonical WCC labels
	sizes  map[graph.VertexID]int
	dist   []int32 // hop distances from source
	khop   map[int][]int32
	ranks  map[rankKey][]float64
}

type rankKey struct {
	clean     bool
	damping   float64
	tolerance float64
	maxIter   int
}

func newOracle(g *graph.Graph, source graph.VertexID) *oracle {
	o := &oracle{
		g: g, source: source,
		labels: singlethread.WCCReference(g),
		dist:   graph.BFSDistances(g, source),
		khop:   map[int][]int32{},
		ranks:  map[rankKey][]float64{},
		sizes:  map[graph.VertexID]int{},
	}
	for _, l := range o.labels {
		o.sizes[l]++
	}
	return o
}

func (o *oracle) pageRank(k rankKey) []float64 {
	if r, ok := o.ranks[k]; ok {
		return r
	}
	g := o.g
	if k.clean {
		if o.clean == nil {
			o.clean = o.g.WithoutSelfEdges()
		}
		g = o.clean
	}
	r, _, _ := singlethread.PageRank(g, k.damping, k.tolerance, k.maxIter)
	o.ranks[k] = r
	return r
}

func (o *oracle) kHop(k int) []int32 {
	if d, ok := o.khop[k]; ok {
		return d
	}
	d, _ := singlethread.KHop(o.g, o.source, k)
	o.khop[k] = d
	return d
}

// rankTolerance is the workload tolerance on PageRank: engines sum in a
// different order than the oracle, so ranks agree to rounding, relative
// to the rank's magnitude (hub ranks reach 10³ at this scale).
// Blogel-B's two-step algorithm reaches the same fixpoint along a
// different path (§3.1.2) and is held to 10 %, as in its own tests.
const (
	rankTolerance        = 1e-9
	rankToleranceBlogelB = 0.1
)

// checkResult compares one engine result with the oracle. A modeled
// non-OK status (OOM, TO, MPI) is a finding of the study, not a
// failure, and is not checked further. sysKey is the registry key of the
// system that produced res.
func (o *oracle) checkResult(sysKey string, res *engine.Result) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if res.Status != sim.OK {
		return nil
	}
	w := res.Workload
	switch w.Kind {
	case engine.PageRank:
		want := o.pageRank(rankKey{strings.HasPrefix(sysKey, "gl-"), w.Damping, w.Tolerance, w.MaxIterations})
		tol := rankTolerance
		if sysKey == "blogel-b" {
			tol = rankToleranceBlogelB
		}
		return checkRanks(res.Ranks, want, tol)
	case engine.WCC:
		return checkLabels(res.Labels, o.labels)
	case engine.SSSP:
		return checkDistances(res.Dist, o.dist, math.MaxInt32)
	case engine.KHop:
		return checkDistances(res.Dist, o.kHop(w.K), math.MaxInt32)
	default:
		return fmt.Errorf("no oracle for workload %s", w.Kind)
	}
}

func checkRanks(got, want []float64, relTol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("ranks length %d, want %d", len(got), len(want))
	}
	for v := range want {
		scale := math.Max(1, math.Abs(want[v]))
		if d := math.Abs(got[v] - want[v]); !(d <= relTol*scale) {
			return fmt.Errorf("rank[%d] = %v, want %v (relative tolerance %g)", v, got[v], want[v], relTol)
		}
	}
	return nil
}

func checkLabels(got, want []graph.VertexID) error {
	if len(got) != len(want) {
		return fmt.Errorf("labels length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkDistances requires exact hop distances for every vertex whose
// true distance is below limit; a run capped at a superstep count may
// leave farther vertices unreached (-1) but must never invent a
// distance.
func checkDistances(got, want []int32, limit int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("distances length %d, want %d", len(got), len(want))
	}
	for v := range want {
		if want[v] >= 0 && want[v] < limit {
			if got[v] != want[v] {
				return fmt.Errorf("dist[%d] = %d, want %d", v, got[v], want[v])
			}
		} else if got[v] != -1 && got[v] != want[v] {
			return fmt.Errorf("dist[%d] = %d beyond the cap, want %d or -1", v, got[v], want[v])
		}
	}
	return nil
}

// sameOutputs reports whether two results carry bit-identical outputs,
// statuses, iteration counts and modeled totals — the contract between
// passes of one cell and between a spilled run and an ungoverned one.
func sameOutputs(a, b *engine.Result) error {
	switch {
	case a.Status != b.Status:
		return fmt.Errorf("status %v vs %v", a.Status, b.Status)
	case a.Iterations != b.Iterations:
		return fmt.Errorf("iterations %d vs %d", a.Iterations, b.Iterations)
	case a.TotalTime() != b.TotalTime():
		return fmt.Errorf("modeled total %v vs %v", a.TotalTime(), b.TotalTime())
	case a.NetBytes != b.NetBytes:
		return fmt.Errorf("modeled network bytes %d vs %d", a.NetBytes, b.NetBytes)
	case len(a.Ranks) != len(b.Ranks) || len(a.Labels) != len(b.Labels) || len(a.Dist) != len(b.Dist):
		return fmt.Errorf("output lengths differ")
	}
	for i := range a.Ranks {
		if math.Float64bits(a.Ranks[i]) != math.Float64bits(b.Ranks[i]) {
			return fmt.Errorf("rank[%d] %v vs %v", i, a.Ranks[i], b.Ranks[i])
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			return fmt.Errorf("label[%d] %d vs %d", i, a.Labels[i], b.Labels[i])
		}
	}
	for i := range a.Dist {
		if a.Dist[i] != b.Dist[i] {
			return fmt.Errorf("dist[%d] %d vs %d", i, a.Dist[i], b.Dist[i])
		}
	}
	return nil
}

// serveBody is the union of the query response fields the checks read.
type serveBody struct {
	Status   string `json:"status"`
	Workload string `json:"workload"`
	K        int    `json:"k"`
	Top      []struct {
		Vertex int     `json:"vertex"`
		Rank   float64 `json:"rank"`
	} `json:"top"`
	Vertex        int  `json:"vertex"`
	Component     int  `json:"component"`
	ComponentSize int  `json:"component_size"`
	Source        int  `json:"source"`
	Distance      int  `json:"distance"`
	Reachable     bool `json:"reachable"`
}

// checkServeBody holds a 200 response against the oracle: WCC and SSSP
// answers exactly; a PageRank answer (whose system the planner chose,
// possibly an asynchronous one) by shape — k entries, ranks descending,
// ties toward the smaller id.
func (o *oracle) checkServeBody(kind engine.Kind, param int, body []byte) error {
	var b serveBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("decoding body: %w", err)
	}
	if b.Status != "OK" || b.Workload != kind.String() {
		return fmt.Errorf("body reports %s/%s", b.Workload, b.Status)
	}
	switch kind {
	case engine.PageRank:
		if b.K != param || len(b.Top) != min(param, len(o.labels)) {
			return fmt.Errorf("top-%d answer has k=%d and %d entries", param, b.K, len(b.Top))
		}
		for i := 1; i < len(b.Top); i++ {
			p, q := b.Top[i-1], b.Top[i]
			if p.Rank < q.Rank || (p.Rank == q.Rank && p.Vertex >= q.Vertex) {
				return fmt.Errorf("top-k not in rank order at %d", i)
			}
		}
	case engine.WCC:
		want := o.labels[param]
		if b.Vertex != param || b.Component != int(want) || b.ComponentSize != o.sizes[want] {
			return fmt.Errorf("wcc(%d) = component %d size %d, want %d size %d",
				param, b.Component, b.ComponentSize, want, o.sizes[want])
		}
	case engine.SSSP:
		want := o.dist[param]
		if b.Vertex != param || b.Source != int(o.source) || b.Distance != int(want) || b.Reachable != (want >= 0) {
			return fmt.Errorf("sssp(%d) = %d from %d, want %d from %d", param, b.Distance, b.Source, want, o.source)
		}
	}
	return nil
}
