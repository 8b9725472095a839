package bsp

import (
	"fmt"
	"math"
	"slices"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/singlethread"
)

// The vertex programs of §3 plus the two extension workloads, written
// once against the BSP API and shared by Giraph, Blogel-V and Flink
// Gelly — mirroring the paper's methodology of keeping the algorithm
// uniform across systems.

// SumCombine is the PageRank message combiner.
func SumCombine(a, b float64) float64 { return a + b }

// MinCombine is the WCC/SSSP/K-hop message combiner.
func MinCombine(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// PageRankProgram implements §3.1: pr(v) = δ + (1−δ)·Σ pr(u)/outdeg(u),
// all vertices participating every iteration (the exact variant).
type PageRankProgram struct {
	Damping float64
}

// Init starts every vertex at rank 1.
func (p *PageRankProgram) Init(graph.VertexID) float64 { return 1 }

// Compute implements one PageRank superstep.
func (p *PageRankProgram) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		if d := ctx.OutDegree(); d > 0 {
			ctx.SendToOut(ctx.Value() / float64(d))
		}
		return
	}
	sum := 0.0
	for _, m := range msgs {
		sum += m
	}
	next := p.Damping + (1-p.Damping)*sum
	d := next - ctx.Value()
	if d < 0 {
		d = -d
	}
	ctx.AggregateMaxDelta(d)
	ctx.SetValue(next)
	if deg := ctx.OutDegree(); deg > 0 {
		ctx.SendToOut(next / float64(deg))
	}
}

// WCCProgram implements HashMin (§3.2) with the paper's corrected
// first-superstep behaviour: superstep 0 sends each vertex id along
// out-edges, which both seeds label propagation and discovers reverse
// edges; later supersteps propagate minima along edges in both
// directions. Runs must set Config.UseInNeighbors and CombineFrom=1
// (messages in the first superstep must not be combined, §5.8).
type WCCProgram struct{}

// Init labels each vertex with its own id.
func (WCCProgram) Init(v graph.VertexID) float64 { return float64(v) }

// Compute implements one HashMin superstep.
func (WCCProgram) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		ctx.SendToOut(ctx.Value())
		return // stay active so every vertex runs in superstep 1
	}
	min := ctx.Value()
	for _, m := range msgs {
		if m < min {
			min = m
		}
	}
	switch {
	case min < ctx.Value():
		ctx.SetValue(min)
		ctx.SendToAllNeighbors(min)
	case ctx.Superstep() == 1:
		// Unchanged, but neighbors still need this vertex's label once.
		ctx.SendToAllNeighbors(ctx.Value())
	}
	ctx.VoteToHalt()
}

// SSSPProgram implements §3.3's BFS-style SSSP: hop distances from
// Source, one frontier level per superstep.
type SSSPProgram struct {
	Source graph.VertexID
}

// Init sets every distance to +Inf.
func (p *SSSPProgram) Init(graph.VertexID) float64 { return math.Inf(1) }

// Compute implements one SSSP superstep.
func (p *SSSPProgram) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		if ctx.Vertex() == p.Source {
			ctx.SetValue(0)
			ctx.SendToOut(1)
		}
		ctx.VoteToHalt()
		return
	}
	min := ctx.Value()
	for _, m := range msgs {
		if m < min {
			min = m
		}
	}
	if min < ctx.Value() {
		ctx.SetValue(min)
		ctx.SendToOut(min + 1)
	}
	ctx.VoteToHalt()
}

// KHopProgram is SSSP truncated at K hops (§3.3; the paper uses K=3).
type KHopProgram struct {
	Source graph.VertexID
	K      int
}

// Init sets every distance to +Inf.
func (p *KHopProgram) Init(graph.VertexID) float64 { return math.Inf(1) }

// Compute implements one bounded-BFS superstep.
func (p *KHopProgram) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		if ctx.Vertex() == p.Source {
			ctx.SetValue(0)
			if p.K > 0 {
				ctx.SendToOut(1)
			}
		}
		ctx.VoteToHalt()
		return
	}
	min := ctx.Value()
	for _, m := range msgs {
		if m < min {
			min = m
		}
	}
	if min < ctx.Value() {
		ctx.SetValue(min)
		if int(min)+1 <= p.K {
			ctx.SendToOut(min + 1)
		}
	}
	ctx.VoteToHalt()
}

// pairShift is the bit width of the second id in an encoded pair: two
// vertex ids share one float64 message, so both must stay below 2^26
// for the 52-bit mantissa to hold the pair exactly. Synthetic analogues
// are orders of magnitude smaller.
const pairShift = 26

// EncodePair packs two vertex ids into one float64 message — how the
// triangle program rides the flat message plane without per-message
// boxing. It panics if an id does not fit, which is a configuration
// error (the synthetic graphs are far below the bound).
func EncodePair(a, b graph.VertexID) float64 {
	if a < 0 || b < 0 || a >= 1<<pairShift || b >= 1<<pairShift {
		panic(fmt.Sprintf("bsp: vertex pair (%d,%d) exceeds the 2^%d message-encoding bound", a, b, pairShift))
	}
	return float64(int64(a)<<pairShift | int64(b))
}

// DecodePair unpacks a message encoded by EncodePair.
func DecodePair(m float64) (a, b graph.VertexID) {
	x := int64(m)
	return graph.VertexID(x >> pairShift), graph.VertexID(x & (1<<pairShift - 1))
}

// TriangleProgram implements degree-ordered (forward) triangle counting
// in three supersteps. The run must use the graph.ForwardOrient
// orientation as Config.Graph and pass its rank array:
//
//	superstep 0: every vertex u sends, for each pair (v, w) of its
//	  forward neighbors, the candidate pair (u, third) to the
//	  lower-ranked of {v, w} — the quadratic fan-out that makes this
//	  workload stress message planes;
//	superstep 1: a vertex probes each candidate's closing edge in its
//	  own forward list; each hit counts one triangle locally and sends
//	  one credit to each of the two other corners;
//	superstep 2: credits are folded into the per-vertex counts.
//
// Per-vertex values end as incident-triangle counts: every triangle
// adds one at each of its three corners, so sum(values)/3 is the global
// total. Credits may be sum-combined (CombineFrom 1); candidates must
// not be combined.
type TriangleProgram struct {
	Rank []int32
}

// Init starts every count at zero.
func (p *TriangleProgram) Init(graph.VertexID) float64 { return 0 }

// Compute implements one triangle-counting superstep.
func (p *TriangleProgram) Compute(ctx *Context, msgs []float64) {
	switch ctx.Superstep() {
	case 0:
		nbrs := ctx.OutNeighbors()
		u := ctx.Vertex()
		for i, v := range nbrs {
			for _, w := range nbrs[i+1:] {
				mid, third := v, w
				if p.Rank[mid] > p.Rank[third] {
					mid, third = third, mid
				}
				ctx.Send(mid, EncodePair(u, third))
			}
		}
	case 1:
		nbrs := ctx.OutNeighbors()
		count := ctx.Value()
		for _, m := range msgs {
			u, third := DecodePair(m)
			if _, ok := slices.BinarySearch(nbrs, third); ok {
				count++
				ctx.Send(u, 1)
				ctx.Send(third, 1)
			}
		}
		ctx.SetValue(count)
	default:
		sum := ctx.Value()
		for _, m := range msgs {
			sum += m
		}
		ctx.SetValue(sum)
	}
	ctx.VoteToHalt()
}

// LPAProgram implements synchronous label propagation. The run must use
// the undirected simple view (graph.Graph.Simple) as Config.Graph, with
// no combiner (label frequencies matter). Every vertex sends its label
// every round until the fixed cap, then halts; the runtime stops on
// quiescence one superstep later.
//
// The inbox slice is sorted in place — it is consumed by this vertex
// only and rebuilt by the next merge pass — so the most-frequent /
// max-tie-break scan allocates nothing per superstep.
type LPAProgram struct {
	Rounds int // synchronous rounds; superstep r computes round r
}

// Init labels each vertex with its own id.
func (p *LPAProgram) Init(v graph.VertexID) float64 { return float64(v) }

// Compute implements one LPA superstep.
func (p *LPAProgram) Compute(ctx *Context, msgs []float64) {
	if ctx.Superstep() == 0 {
		ctx.SendToOut(ctx.Value())
		return // stay active: every vertex participates in every round
	}
	slices.Sort(msgs)
	label := singlethread.ModeMaxLabel(msgs, ctx.Value())
	ctx.SetValue(label)
	if ctx.Superstep() < p.Rounds {
		ctx.SendToOut(label)
		return
	}
	ctx.VoteToHalt()
}

// DistancesFromValues converts float vertex values to the int32 hop
// distances used by the oracles (-1 for unreached).
func DistancesFromValues(values []float64) []int32 { return engine.DistancesFromValues(values) }

// LabelsFromValues converts float vertex values to WCC labels.
func LabelsFromValues(values []float64) []graph.VertexID { return engine.LabelsFromValues(values) }
