package plan

import (
	"fmt"
	"strings"

	"graphbench/internal/engine"
	"graphbench/internal/metrics"
)

// Candidate is one scored configuration in a decision trace.
type Candidate struct {
	System     string     `json:"system"`
	Prediction Prediction `json:"prediction"`
	Score      float64    `json:"score"`
}

// Decision is the planner's answer to one Request, carrying the full
// audit trail: the inputs (request and profile), every candidate with
// its forecast and score, and the chosen configuration. A pinned
// decision is shared by every request for its cell: treat it as
// immutable.
type Decision struct {
	Request Request  `json:"request"`
	Profile *Profile `json:"profile"`

	// Chosen configuration.
	System     string            `json:"system"` // system key (core.SystemByKey resolves it)
	Machines   int               `json:"machines"`
	Shards     int               `json:"shards"`
	ShardPlan  engine.ShardPlan  `json:"-"`
	Direction  engine.Direction  `json:"-"`
	MemoryTier engine.MemoryTier `json:"-"`

	Predicted  Prediction  `json:"predicted"`
	Score      float64     `json:"score"`
	Candidates []Candidate `json:"candidates"`
}

// Summary is the one-line form of the decision, used in response
// headers and run logs:
//
//	system=giraph shards=12 plan=weighted dir=auto tier=auto score=123.4
func (d *Decision) Summary() string {
	return fmt.Sprintf("system=%s shards=%d plan=%s dir=%s tier=%s score=%.1f",
		d.System, d.Shards, d.ShardPlan, directionName(d.Direction), d.MemoryTier, d.Score)
}

// Trace renders the full audit trail as an indented multi-line block:
// inputs, every candidate score and the chosen configuration.
func (d *Decision) Trace() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s @ %d machines\n", d.Request.Key(), d.Machines)
	p := d.Profile
	fmt.Fprintf(&b, "  profile: class=%s V=%d E=%d skew=%.1f diam=%d depth(sssp=%d wcc=%d)\n",
		p.Class, p.Vertices, p.Edges, p.Skew, p.Diameter, p.DepthSSSP, p.DepthWCC)
	fmt.Fprintf(&b, "  candidates:\n")
	for _, c := range d.Candidates {
		marker := " "
		if c.System == d.System {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s %-10s %-4s score=%10.1f time=%9.1fs mem=%s net=%s [%s]\n",
			marker, c.System, c.Prediction.Status, c.Score, c.Prediction.TimeSec,
			metrics.FmtBytes(c.Prediction.MemTotal), metrics.FmtBytes(c.Prediction.NetBytes),
			c.Prediction.Source)
	}
	fmt.Fprintf(&b, "  chosen: %s\n", d.Summary())
	return b.String()
}

// directionName names a direction policy for traces (engine.Direction
// has no String method of its own).
func directionName(dir engine.Direction) string {
	switch dir {
	case engine.DirectionPush:
		return "push"
	case engine.DirectionPull:
		return "pull"
	default:
		return "auto"
	}
}
