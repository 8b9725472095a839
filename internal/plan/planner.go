package plan

import (
	"fmt"
	"sync"

	"graphbench/internal/engine"
)

// Request is one planning question: run this workload on this dataset
// with this machine budget — which configuration?
type Request struct {
	// Dataset names the prepared dataset the profile was built from.
	Dataset string `json:"dataset"`
	// Workload is the engine.Kind string ("pagerank", "wcc", "sssp",
	// "khop", "triangle", "lpa").
	Workload string `json:"workload"`
	// Machines is the cluster size of the run.
	Machines int `json:"machines"`
	// MemoryBudget, when positive, is the host-side byte budget the
	// run will execute under (the memory governor's budget); it drives
	// the memory-tier decision.
	MemoryBudget int64 `json:"memory_budget,omitempty"`
}

// Key identifies the request cell for logs and caches.
func (r Request) Key() string {
	return fmt.Sprintf("%s|%s|%d", r.Dataset, r.Workload, r.Machines)
}

// Planner makes adaptive configuration decisions from dataset profiles
// and the calibrated cost model. Safe for concurrent use.
//
// Determinism: the first Decide for a request cell is a pure function
// of (profile, request), and the decision is then pinned — repeating
// the request returns the same decision, so serving paths can cache on
// it.
type Planner struct {
	mu      sync.Mutex
	decided map[string]*Decision // canonical decision per Request.Key()
}

// New returns an empty planner.
func New() *Planner {
	return &Planner{decided: make(map[string]*Decision)}
}

// Configuration heuristics, documented here because tests pin them.
const (
	// verticesPerShard sizes the shard count: one shard per this many
	// work units (vertices+edges), clamped to [1, maxShards]. Small
	// graphs get few shards (per-shard dispatch overhead dominates);
	// large graphs cap at maxShards (diminishing returns past the
	// core count of any plausible host).
	verticesPerShard = 32768
	maxShards        = 64

	// skewThreshold is the degree-skew (max/avg out-degree) above
	// which the weighted (degree-balanced) shard plan pays for its
	// O(V) prefix consultation. Below it, uniform ranges are equally
	// balanced and cheaper to cut.
	skewThreshold = 4.0

	// deepTraversalDepth is the paper-scale traversal depth beyond
	// which direction-optimizing stops paying for SSSP/k-hop: road-
	// network-scale depths mean thousands of sparse frontiers where
	// the per-iteration density check is pure overhead.
	deepTraversalDepth = 32
)

// Decide selects the configuration for req given the dataset profile:
// engine (by minimum composite resource cost over the model's
// candidates), shard count, shard plan, direction mode, and memory
// tier. The returned decision carries the full trace — profile,
// scored candidates, chosen configuration, predicted cost — and is
// bit-deterministic for a given (profile, request).
//
// Decisions are sticky: the first Decide for a request cell is pinned,
// and later calls for the same cell return that decision. It is
// immutable and shared by every caller; pinning keeps downstream cache
// keys and response headers stable.
func (p *Planner) Decide(pr *Profile, req Request) *Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := req.Key()
	d, ok := p.decided[key]
	if !ok {
		d = decide(pr, req)
		p.decided[key] = d
	}
	return d
}

// decide computes a fresh decision.
func decide(pr *Profile, req Request) *Decision {
	d := &Decision{
		Request:  req,
		Profile:  pr,
		Machines: req.Machines,
	}

	for _, sys := range modelSystems(req.Workload) {
		if !runsOn(sys, req.Machines) {
			continue // never choose, or rank, what cannot run
		}
		pred := predict(pr, sys, req.Workload, req.Machines)
		c := Candidate{System: sys, Prediction: pred, Score: Score(pred, req.Machines)}
		d.Candidates = append(d.Candidates, c)
		// Strict less-than: candidates arrive in sorted key order, so
		// ties resolve to the lexicographically first system and the
		// argmin is deterministic.
		if d.System == "" || c.Score < d.Score {
			d.System = sys
			d.Predicted = pred
			d.Score = c.Score
		}
	}

	work := pr.Vertices + pr.Edges
	d.Shards = (work + verticesPerShard - 1) / verticesPerShard
	if d.Shards < 1 {
		d.Shards = 1
	}
	if d.Shards > maxShards {
		d.Shards = maxShards
	}

	if pr.Skew >= skewThreshold {
		d.ShardPlan = engine.ShardPlanWeighted
	} else {
		d.ShardPlan = engine.ShardPlanUniform
	}

	switch req.Workload {
	case "pagerank", "wcc":
		// Dense stable frontiers: the per-iteration density check is
		// cheap and pull sweeps win the dense phases.
		d.Direction = engine.DirectionAuto
	case "sssp", "khop":
		if pr.DepthSSSP <= deepTraversalDepth {
			d.Direction = engine.DirectionAuto
		} else {
			d.Direction = engine.DirectionPush
		}
	default:
		// triangle, lpa: no monotone frontier shape for pull sweeps.
		d.Direction = engine.DirectionPush
	}

	if req.MemoryBudget > 0 && pr.HostBytes > req.MemoryBudget {
		// The in-core working set clearly exceeds the budget: skip the
		// doomed reservation probes and start out-of-core.
		d.MemoryTier = engine.TierSpill
	}
	return d
}

// Decisions returns the one-line summary of every pinned decision, keyed
// by request cell (Request.Key()) — the view /metrics serves.
func (p *Planner) Decisions() map[string]string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]string, len(p.decided))
	for k, d := range p.decided {
		out[k] = d.Summary()
	}
	return out
}
