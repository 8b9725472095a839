package plan

import (
	"sort"
	"strings"

	"graphbench/internal/datasets"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
)

// curve is one least-squares cost curve over the cluster size m:
// value(m) = a/m + b + c*m. The a term captures perfectly parallel
// work, b the serial floor, c the per-machine overhead (coordination,
// replicated state). Coefficients are fitted offline to the grid
// observations in model_data.go.
type curve struct{ a, b, c float64 }

func (c curve) at(m int) float64 {
	fm := float64(m)
	return c.a/fm + c.b + c.c*fm
}

// calibCell is one exact grid observation: the modeled outcome of
// (system, workload, class-reference dataset) at one cluster size.
// Because modeled costs are bit-deterministic, these are not samples
// but ground truth — when a request matches the reference workload
// shape the planner predicts from the cell, not the fitted curve.
type calibCell struct {
	Status string // sim failure code, or "OK"
	Time   float64
	MemTot float64
	MemMax float64
	Net    float64
	CPU    float64
}

// calibEntry aggregates the calibration of one (system, workload,
// graph class): fitted curves for every cost axis, the observed
// iteration count at the class reference, and the exact per-cluster-
// size cells.
type calibEntry struct {
	Time   curve
	MemMax curve
	MemTot curve
	Net    curve
	CPU    curve
	Iters  int
	At     map[int]calibCell
}

// calibration maps "systemKey|workload|class" to its entry; populated
// by the generated model_data.go.
var calibration map[string]*calibEntry

// Graph classes the cost model distinguishes. Each maps to the
// reference dataset whose grid observations calibrated the class.
const (
	ClassSocial = "social" // power-law, low diameter (reference: twitter)
	ClassRoad   = "road"   // near-uniform degree, huge diameter (reference: wrn)
	ClassWeb    = "web"    // power-law, locality, vertex-heavy (reference: uk200705)
)

// classRef maps each class to its calibration reference dataset.
var classRef = map[string]datasets.Name{
	ClassSocial: datasets.Twitter,
	ClassRoad:   datasets.WRN,
	ClassWeb:    datasets.UK,
}

// Classify places a dataset in a model class. The four paper datasets
// are classified by name; anything else falls back to profile shape
// (degree skew, then diameter).
func Classify(dataset string, skew float64, diameter int) string {
	switch datasets.Name(dataset) {
	case datasets.Twitter:
		return ClassSocial
	case datasets.WRN:
		return ClassRoad
	case datasets.UK, datasets.ClueWeb:
		return ClassWeb
	}
	if skew < 4 && diameter >= 64 {
		return ClassRoad
	}
	if skew >= 16 {
		return ClassSocial
	}
	return ClassWeb
}

// refWork returns the class reference dataset's paper-scale work units
// (edges + 2*vertices — the load/compute proxy the ratio path scales
// by).
func refWork(class string) float64 {
	spec := datasets.SpecFor(classRef[class])
	return float64(spec.PaperEdges) + 2*float64(spec.PaperVertices)
}

// Prediction is the cost model's forecast of one candidate
// configuration. All values are modeled (paper-scale) quantities, so
// they are bit-deterministic for a given profile.
type Prediction struct {
	Status     string  `json:"status"` // predicted sim status ("OK" or a failure code)
	TimeSec    float64 `json:"time_sec"`
	CPUSec     float64 `json:"cpu_sec"`
	MemTotal   int64   `json:"mem_total_bytes"` // sum of per-machine peaks
	MemMax     int64   `json:"mem_max_bytes"`   // largest per-machine peak
	NetBytes   int64   `json:"net_bytes"`
	Iterations int     `json:"iterations"`
	Source     string  `json:"source"` // "calibrated" or "curve"
}

// Failure-predictor constants. These encode the paper's failure
// taxonomy (Table 10) as decision rules over the profile.
const (
	// mpiVertexLimit is the GVD int32-coordinate overflow point of
	// Blogel-B's MPI partitioner: 2^31/4 paper-scale vertices.
	mpiVertexLimit = int64(1) << 29
	// oomFraction of a machine's memory at which the model predicts an
	// OOM kill (headroom below the hard limit is always consumed by
	// runtime overhead the ledger does not see).
	oomFraction = 0.92
	// shuffleIterLimit is HaLoop's shuffle-failure onset: wide clusters
	// re-shuffle the loop-invariant cache every iteration, and past
	// this many iterations the model predicts the SHFL failure.
	shuffleIterLimit = 5
	shuffleMachines  = 64
)

// predict forecasts the cost of running workload on system at m
// machines for the profiled graph. Requests for a class reference
// dataset at an observed cluster size return the exact grid cell
// (modeled costs are bit-deterministic, so the cell is ground truth,
// not a sample); everything else extrapolates on the fitted curves
// and applies the failure predictors.
func predict(pr *Profile, sysKey, workload string, m int) Prediction {
	e := calibration[sysKey+"|"+workload+"|"+pr.Class]
	if e == nil {
		return Prediction{Status: "UNSUP", TimeSec: sim.TimeoutSeconds, Source: "curve"}
	}
	if cell, ok := e.At[m]; ok && pr.Dataset == string(classRef[pr.Class]) {
		return Prediction{
			Status:     cell.Status,
			TimeSec:    cell.Time,
			CPUSec:     cell.CPU,
			MemTotal:   int64(cell.MemTot),
			MemMax:     int64(cell.MemMax),
			NetBytes:   int64(cell.Net),
			Iterations: e.Iters,
			Source:     "calibrated",
		}
	}
	ratio := pr.WorkUnits() / refWork(pr.Class)
	iterRatio := 1.0
	if e.Iters > 0 {
		switch workload {
		case "sssp", "khop":
			iterRatio = float64(pr.DepthSSSP) / float64(e.Iters)
		case "wcc":
			iterRatio = float64(pr.DepthWCC) / float64(e.Iters)
		}
	}

	p := Prediction{
		Status:     "OK",
		TimeSec:    (e.Time.a/float64(m)+e.Time.b)*ratio*iterRatio + e.Time.c*float64(m),
		CPUSec:     e.CPU.at(m) * ratio * iterRatio,
		MemTotal:   int64(e.MemTot.at(m) * ratio),
		MemMax:     int64(e.MemMax.at(m) * ratio),
		NetBytes:   int64(e.Net.at(m) * ratio * iterRatio),
		Iterations: int(float64(e.Iters)*iterRatio + 0.5),
		Source:     "curve",
	}
	switch {
	case sysKey == "blogel-b" && pr.PaperVertices > mpiVertexLimit:
		p.Status = "MPI"
	case sysKey == "haloop" && m >= shuffleMachines && p.Iterations > shuffleIterLimit:
		p.Status = "SHFL"
	case p.TimeSec >= sim.TimeoutSeconds:
		p.Status = "TO"
	case float64(p.MemMax) >= oomFraction*float64(sim.MemoryPerMachine):
		p.Status = "OOM"
	}
	return p
}

// modelSystems returns the system keys the cost model covers for a
// workload, in deterministic (sorted) order: the nine main-grid
// systems always, plus the four PageRank-only GraphLab variants when
// the workload is PageRank. The keys mirror core.Systems(); the
// planner deals in keys so the dependency points plan ← core.
func modelSystems(workload string) []string {
	keys := []string{
		"blogel-b", "blogel-v", "gelly", "giraph", "gl-s-a-i", "gl-s-r-i",
		"graphx", "hadoop", "haloop",
	}
	if workload == "pagerank" {
		keys = append(keys, "gl-a-a-t", "gl-a-r-t", "gl-s-a-t", "gl-s-r-t")
		sort.Strings(keys)
	}
	return keys
}

// runsOn mirrors core.System.RunsOn over the model's keys: GraphLab and
// GraphX place edges by vertex cut, which partition builds for at most
// MaxVertexCutMachines machines; every other system runs at any size.
func runsOn(sysKey string, m int) bool {
	vertexCut := sysKey == "graphx" || strings.HasPrefix(sysKey, "gl-")
	return !vertexCut || m <= partition.MaxVertexCutMachines
}
