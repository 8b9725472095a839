package plan

import (
	"graphbench/internal/engine"
	"graphbench/internal/graph"
)

// diameterSamples and diameterSeed fix the sampled effective-diameter
// estimate: the double-sweep heuristic is randomized, so determinism of
// planner decisions requires pinning both. Two samples are enough for
// the class split (road networks are orders of magnitude above the
// threshold).
const (
	diameterSamples = 2
	diameterSeed    = int64(1)
)

// Profile is the planner's snapshot of one prepared dataset: the cheap
// graph statistics every decision is made from. Building one costs a
// few linear passes (degree stats, sampled BFS sweeps, hash-min
// rounds); decisions against it are pure table lookups. All fields are
// deterministic functions of the graph snapshot, which is what makes
// decisions bit-deterministic.
type Profile struct {
	Dataset  string  `json:"dataset"`
	Class    string  `json:"class"` // model class (social/road/web), see Classify
	Vertices int     `json:"vertices"`
	Edges    int     `json:"edges"`
	Scale    float64 `json:"scale"` // paper-scale multiplier of the snapshot

	// PaperVertices and PaperEdges are the scale-adjusted feature
	// sizes (host count × Scale) — the quantities the cost model and
	// the failure predictors are calibrated against.
	PaperVertices int64 `json:"paper_vertices"`
	PaperEdges    int64 `json:"paper_edges"`

	AvgOutDeg float64 `json:"avg_out_degree"`
	MaxOutDeg int     `json:"max_out_degree"`
	Skew      float64 `json:"skew"`    // MaxOutDeg / AvgOutDeg — degree-skew proxy
	Density   float64 `json:"density"` // Edges / Vertices

	// Diameter is the sampled effective-diameter estimate of the
	// undirected view (double-sweep from diameterSamples seeds).
	Diameter int `json:"diameter"`

	// DepthSSSP and DepthWCC are the paper-scale iteration counts of
	// the traversal workloads: synthetic depth × iteration dilation.
	// They feed the iteration-ratio term of the cost model and the
	// HaLoop shuffle predictor.
	DepthSSSP int `json:"depth_sssp"`
	DepthWCC  int `json:"depth_wcc"`

	// HostBytes estimates the in-core working set of one run on this
	// host (CSR both directions plus value/arena planes) — the input
	// to the memory-tier decision.
	HostBytes int64 `json:"host_bytes"`
}

// Host working-set estimate: bytes per vertex (values, halted flags,
// offsets, arena indexes) and per edge (two CSR directions plus inbox
// arena slots).
const (
	hostBytesPerVertex = 41
	hostBytesPerEdge   = 72
)

// NewProfile profiles a prepared dataset. The graph g must be the
// snapshot d was prepared from; the profile inherits its scale and
// dilation factors so depth features are paper-scale.
func NewProfile(d *engine.Dataset, g *graph.Graph) *Profile {
	st := g.Stats()
	p := &Profile{
		Dataset:       d.Name,
		Vertices:      st.Vertices,
		Edges:         st.Edges,
		Scale:         d.Scale,
		PaperVertices: int64(float64(st.Vertices) * d.Scale),
		PaperEdges:    int64(float64(st.Edges) * d.Scale),
		AvgOutDeg:     st.AvgOutDegree,
		MaxOutDeg:     st.MaxOutDegree,
		Diameter:      graph.EstimateDiameter(g, diameterSamples, diameterSeed),
		HostBytes:     int64(st.Vertices)*hostBytesPerVertex + int64(st.Edges)*hostBytesPerEdge,
	}
	if st.AvgOutDegree > 0 {
		p.Skew = float64(st.MaxOutDegree) / st.AvgOutDegree
	}
	if st.Vertices > 0 {
		p.Density = float64(st.Edges) / float64(st.Vertices)
	}
	ecc := graph.Eccentricity(g, d.Source)
	p.DepthSSSP = d.DilatedIterations(engine.SSSP, ecc)
	p.DepthWCC = d.DilatedIterations(engine.WCC, graph.HashMinRounds(g))
	p.Class = Classify(p.Dataset, p.Skew, p.Diameter)
	return p
}

// WorkUnits is the profile's paper-scale work proxy (edges + 2×
// vertices): the quantity load and compute charges scale with, and the
// ratio the curve path extrapolates by.
func (p *Profile) WorkUnits() float64 {
	return float64(p.PaperEdges) + 2*float64(p.PaperVertices)
}
