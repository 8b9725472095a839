// Package engine defines the contract shared by the eight system
// implementations: the workload specifications of §3 of the paper, the
// dataset handle (the prepared graph plus its simulated-HDFS catalogue
// entries, which the load phases are charged from), per-run options, and
// the Result record with the paper's time decomposition
// (load / execute / save / overhead) and failure status.
package engine

import (
	"fmt"
	"math"
	"sync"

	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/hdfs"
	"graphbench/internal/par"
	"graphbench/internal/sim"
)

// Kind identifies a workload: the paper's four (§3) plus the two
// extension workloads (triangle counting and label-propagation
// community detection) this repository adds on top of the study.
type Kind int

// The four workloads of §3, then the extensions.
const (
	PageRank Kind = iota
	WCC
	SSSP
	KHop
	// Triangle is degree-ordered (forward) triangle counting: per-vertex
	// incident-triangle counts whose sum is three times the global
	// total. Every engine runs the same forward algorithm over the same
	// graph.ForwardOrient orientation, so message volume is comparable
	// across systems.
	Triangle
	// LPA is synchronous label-propagation community detection: labels
	// start at the vertex id, each round every vertex adopts the most
	// frequent label among its undirected simple neighbors (ties broken
	// toward the largest label), for a fixed iteration cap. Final labels
	// are canonicalized to the smallest member id of each community.
	LPA
)

// String returns the workload name as used in the paper's figures.
func (k Kind) String() string {
	switch k {
	case PageRank:
		return "pagerank"
	case WCC:
		return "wcc"
	case SSSP:
		return "sssp"
	case KHop:
		return "khop"
	case Triangle:
		return "triangle"
	case LPA:
		return "lpa"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AllKinds lists the paper's workloads in the paper's order. Artifacts
// that reproduce the paper's tables and figures iterate these four;
// extended experiments use ExtendedKinds.
func AllKinds() []Kind { return []Kind{PageRank, WCC, SSSP, KHop} }

// ExtendedKinds lists every workload the repository implements: the
// paper's four followed by the extension workloads.
func ExtendedKinds() []Kind { return []Kind{PageRank, WCC, SSSP, KHop, Triangle, LPA} }

// Workload is a fully specified workload instance.
type Workload struct {
	Kind Kind

	// Source is the start vertex for SSSP and K-hop (§3.3: one random
	// vertex per dataset, used consistently).
	Source graph.VertexID

	// K bounds K-hop; the paper fixes K=3.
	K int

	// Damping is PageRank's δ (0.15 in the paper).
	Damping float64

	// Tolerance stops PageRank when the maximum rank change falls
	// below it (the paper's "T" stopping criterion).
	Tolerance float64

	// MaxIterations, when positive, stops PageRank after a fixed
	// number of iterations (the paper's "I" criterion) regardless of
	// Tolerance. For other workloads it is a safety bound only.
	MaxIterations int
}

// NewPageRank returns the paper's standard PageRank workload with the
// tolerance stopping criterion.
func NewPageRank() Workload {
	return Workload{Kind: PageRank, Damping: 0.15, Tolerance: 0.01}
}

// NewPageRankIters returns PageRank with the fixed-iteration criterion.
func NewPageRankIters(n int) Workload {
	return Workload{Kind: PageRank, Damping: 0.15, MaxIterations: n}
}

// NewWCC returns the WCC (HashMin) workload.
func NewWCC() Workload { return Workload{Kind: WCC} }

// NewSSSP returns SSSP from the given source.
func NewSSSP(source graph.VertexID) Workload {
	return Workload{Kind: SSSP, Source: source}
}

// NewKHop returns the paper's K-hop workload (K=3).
func NewKHop(source graph.VertexID) Workload {
	return Workload{Kind: KHop, Source: source, K: 3}
}

// DefaultLPAIterations is the fixed synchronous round cap of the LPA
// workload. A fixed cap (instead of a convergence test) keeps the
// workload deterministic: synchronous LPA can oscillate forever on
// bipartite structures, and every engine must stop at the same round.
const DefaultLPAIterations = 10

// NewTriangleCount returns the triangle counting workload.
func NewTriangleCount() Workload { return Workload{Kind: Triangle} }

// NewLPA returns the label-propagation workload with the default
// iteration cap.
func NewLPA() Workload { return Workload{Kind: LPA, MaxIterations: DefaultLPAIterations} }

// PageRankDone is PageRank's stop rule after a round: with MaxIterations
// set, the fixed-iteration criterion ("I") regardless of maxDelta;
// otherwise the tolerance criterion ("T"), an unset Tolerance meaning
// the paper's 0.01.
func (w Workload) PageRankDone(iters int, maxDelta float64) bool {
	if w.MaxIterations > 0 {
		return iters >= w.MaxIterations
	}
	if w.Tolerance <= 0 {
		return maxDelta < 0.01
	}
	return maxDelta < w.Tolerance
}

// LPAIterations returns the workload's synchronous round cap.
func (w Workload) LPAIterations() int {
	if w.MaxIterations > 0 {
		return w.MaxIterations
	}
	return DefaultLPAIterations
}

// Options carries per-run tuning that the paper varies per system.
type Options struct {
	// Partitioning selects GraphLab's strategy: "random" or "auto"
	// (§4.4.1). Empty means the engine default.
	Partitioning string

	// Async selects GraphLab's asynchronous engine (§2.2).
	Async bool

	// UseAllCores overrides GraphLab's default of reserving two cores
	// for communication (Figure 1).
	UseAllCores bool

	// NumPartitions overrides GraphX's partition count (Table 5,
	// Figure 2). Zero means the system default (#HDFS blocks).
	NumPartitions int

	// SkipHDFSRoundTrip makes Blogel-B pipe partitions directly into
	// execution instead of writing them back to HDFS first (the
	// modified Blogel of Figure 3).
	SkipHDFSRoundTrip bool

	// DisableCombiner turns off Giraph's message combiner (ablation).
	DisableCombiner bool

	// Approximate lets converged PageRank vertices drop out of the
	// computation (GraphLab-only behaviour, §5.2).
	Approximate bool

	// CheckpointEvery is the fault-tolerance checkpoint cadence in
	// iterations/supersteps: GraphX truncates its lineage to a
	// materialized checkpoint every n iterations, and the BSP engines
	// (when Recover is set) snapshot the vertex-value plane and pending
	// inbox every n supersteps. Zero uses the system default
	// (DefaultCheckpointInterval for recovering BSP runs; GraphX keeps
	// lineage until the run ends).
	CheckpointEvery int

	// Recover enables engine-level recovery from recoverable injected
	// failures (internal/chaos): BSP engines roll back to the last
	// superstep checkpoint and replay, Hadoop/HaLoop re-run the failed
	// job from its materialized shuffle inputs, GraphX recomputes the
	// lost partition from lineage. Without it a recoverable fault ends
	// the run with a Killed status, leaving retry to the caller (the
	// serve path's job-level retry loop).
	Recover bool

	// SampleMemory enables the per-step memory timelines of Figure 10.
	SampleMemory bool

	// Shards is the number of vertex-range shards the engine's hot
	// loops run on: 0 means GOMAXPROCS, 1 forces sequential execution.
	// Shards execute on a persistent worker pool (goroutine count
	// capped at GOMAXPROCS) over edge-balanced plans, and shard
	// results are merged in shard order, so every value produces
	// bit-identical outputs and modeled costs (enforced by
	// internal/enginetest's determinism tests).
	Shards int

	// Pool, when non-nil, is an external persistent worker pool the
	// engine's shard loops borrow instead of creating (and closing) a
	// private one; its Workers() granularity then supersedes Shards.
	// Serve mode keeps one warm pool per admission slot so steady-state
	// requests spawn no goroutines. The pool must not be shared by
	// concurrent runs.
	Pool *par.Pool

	// Direction selects the traversal direction policy for runtimes
	// that support direction-optimized sweeps (the BSP message plane's
	// pull kernels; no other engine reads it). The default,
	// DirectionAuto, switches per iteration on frontier density; the
	// forced modes exist for ablation and equivalence testing. Every
	// policy produces bit-identical outputs and modeled costs — the
	// direction only changes host wall-clock time.
	Direction Direction

	// Governor, when non-nil, bounds the host-side working set of the
	// run: large allocations (inbox arenas, send buckets, traversal
	// scratch) are charged against its byte budget, and BSP engines
	// degrade — shed optional scratch, then go out-of-core with
	// spill-to-disk — instead of growing past it. Runs whose floor does
	// not fit fail with an error unwrapping to govern.ErrBudget.
	// Governed and ungoverned runs produce bit-identical outputs,
	// IterStats, and modeled costs.
	Governor *govern.Governor

	// ShardPlan selects how the engines' primary vertex sweeps are cut
	// into Shards ranges: the default (ShardPlanWeighted) cuts on the
	// degree-work prefix so power-law skew doesn't serialize behind one
	// hot shard, ShardPlanUniform cuts uniform vertex ranges and skips
	// the prefix pass — cheaper, and just as balanced when degrees are
	// near-uniform (road networks). Like Shards, the plan changes host
	// wall time only: outputs and modeled costs are bit-identical under
	// either plan (the shard-merge contract).
	ShardPlan ShardPlan

	// MemoryTier, under a Governor, pre-picks the governed execution
	// tier instead of letting the run probe from the top: TierSpill
	// skips the in-core and lean reservation attempts and goes straight
	// to out-of-core streaming. The adaptive planner sets it when the
	// projected in-core working set clearly exceeds the budget, saving
	// the doomed probe charges. Ignored without a Governor. Out-of-core
	// execution is bit-identical, so the tier never changes results.
	MemoryTier MemoryTier
}

// ShardPlan selects the cut strategy of the engines' shard plans; see
// Options.ShardPlan.
type ShardPlan int

// Shard-plan strategies. ShardPlanWeighted is the zero value (the
// engines' historical behaviour).
const (
	// ShardPlanWeighted cuts shards on the degree-work prefix
	// (par.PlanPrefix over graph.WorkPrefix): edge-balanced, the right
	// default for skewed graphs.
	ShardPlanWeighted ShardPlan = iota
	// ShardPlanUniform cuts uniform vertex ranges (par.PlanShards):
	// skips the O(V) prefix consultation, equally balanced when the
	// degree distribution is near-uniform.
	ShardPlanUniform
)

// String names the plan for traces and logs.
func (sp ShardPlan) String() string {
	if sp == ShardPlanUniform {
		return "uniform"
	}
	return "weighted"
}

// Cut builds the shard plan for g's vertex range with (at most) k
// shards, honoring the strategy.
func (sp ShardPlan) Cut(g *graph.Graph, k int) par.Plan {
	if sp == ShardPlanUniform {
		return par.PlanShards(g.NumVertices(), k)
	}
	return par.PlanPrefix(g.WorkPrefix(), k)
}

// MemoryTier pre-picks the governed execution tier; see
// Options.MemoryTier.
type MemoryTier int

// Memory tiers. TierAuto is the zero value.
const (
	// TierAuto lets the governed run probe tiers from the top: full
	// in-core, then lean (shed scratch), then out-of-core.
	TierAuto MemoryTier = iota
	// TierSpill goes straight to out-of-core streaming, skipping the
	// in-core reservation attempts.
	TierSpill
)

// String names the tier for traces and logs.
func (t MemoryTier) String() string {
	if t == TierSpill {
		return "spill"
	}
	return "auto"
}

// Direction is a traversal direction policy; see Options.Direction.
type Direction int

// Direction policies. DirectionAuto is the zero value.
const (
	// DirectionAuto switches between push and pull per iteration using
	// the Beamer-style density heuristic (graph.FrontierAlpha/Beta).
	DirectionAuto Direction = iota
	// DirectionPush forces top-down push sweeps / the flat message
	// plane on every iteration.
	DirectionPush
	// DirectionPull forces bottom-up pull sweeps on every iteration
	// that has a pull kernel (iteration 0 always pushes).
	DirectionPull
)

// DefaultCheckpointInterval is the superstep checkpoint cadence BSP
// engines use when Recover is set without an explicit CheckpointEvery:
// frequent enough that a mid-run kill replays only a few supersteps,
// sparse enough that checkpoint writes stay a small fraction of
// execution time (the recovery-cost-vs-interval trade of §2.5).
const DefaultCheckpointInterval = 5

// CheckpointInterval returns the BSP superstep-checkpoint interval the
// options imply: 0 (checkpointing off) unless Recover is set, then
// CheckpointEvery or the default.
func (o Options) CheckpointInterval() int {
	if !o.Recover {
		return 0
	}
	if o.CheckpointEvery > 0 {
		return o.CheckpointEvery
	}
	return DefaultCheckpointInterval
}

// RecoveryCosts is the modeled overhead a run paid to fault tolerance:
// checkpoints written, failures survived, and the time spent detecting,
// restarting, and re-executing lost work. All seconds are simulated
// cluster time, already included in the Result's time decomposition —
// these fields break the overhead out so recovery cost per checkpoint
// interval is measurable per system.
type RecoveryCosts struct {
	// Failures is how many recoverable failures the run survived.
	Failures int
	// CheckpointSeconds is time spent writing superstep checkpoints
	// (BSP engines; Hadoop's jobs materialize outputs anyway and GraphX
	// checkpoints are charged by the lineage model, not here).
	CheckpointSeconds float64
	// RestartSeconds is failure detection, rescheduling, and
	// checkpoint-reload time.
	RestartSeconds float64
	// ReplaySeconds is time spent re-executing lost work: supersteps
	// replayed from the checkpoint, jobs re-run from materialized
	// inputs, lineage stages recomputed.
	ReplaySeconds float64
}

// TotalSeconds sums the recovery time components.
func (rc RecoveryCosts) TotalSeconds() float64 {
	return rc.CheckpointSeconds + rc.RestartSeconds + rc.ReplaySeconds
}

// Add accumulates other into rc.
func (rc *RecoveryCosts) Add(other RecoveryCosts) {
	rc.Failures += other.Failures
	rc.CheckpointSeconds += other.CheckpointSeconds
	rc.RestartSeconds += other.RestartSeconds
	rc.ReplaySeconds += other.ReplaySeconds
}

// IterStat records one iteration for the per-iteration analyses
// (Figure 4, Table 6).
type IterStat struct {
	Iteration int
	Active    int     // vertices participating
	Updates   int     // vertex values changed
	Seconds   float64 // modeled wall time of the iteration
}

// Result is the outcome of one experiment run.
type Result struct {
	System   string
	Dataset  string
	Workload Workload
	Machines int

	Status sim.Status
	Err    error // non-nil iff Status != OK

	// The paper's time decomposition (§4.2): Total is end-to-end and
	// includes overhead that the phases don't capture.
	Load, Exec, Save, Overhead float64

	Iterations int
	NetBytes   int64
	MemTotal   int64 // sum of per-machine peaks (Table 8)
	MemMax     int64 // largest per-machine peak

	// CPU seconds summed over machines, by class (Figure 13).
	CPUUser, CPUIO, CPUNet, CPUIdle float64

	ReplicationFactor float64 // vertex-cut systems (Table 4)

	// Costs is the fault-tolerance overhead of the run (zero for runs
	// that neither checkpointed nor recovered).
	Costs RecoveryCosts

	PerIteration []IterStat

	// Govern is the run's slice of the memory governor's ledger (zero
	// for ungoverned runs): peak tracked host bytes, spill volume, and
	// pressure reactions. Host-side accounting — distinct from the
	// modeled MemTotal/MemMax above.
	Govern govern.RunStats

	// Outputs for verification against the single-thread oracles.
	Ranks     []float64        // PageRank
	Labels    []graph.VertexID // WCC component ids / LPA community labels
	Dist      []int32          // SSSP / K-hop hop distances (-1 unreachable)
	Triangles []int64          // per-vertex incident triangle counts

	MemTimeline []sim.MemSample // when Options.SampleMemory
}

// TotalTime returns the end-to-end response time.
func (r *Result) TotalTime() float64 { return r.Load + r.Exec + r.Save + r.Overhead }

// TotalTriangles returns the global triangle count: every triangle is
// counted once at each of its three corners, so the total is the sum of
// the per-vertex counts divided by three.
func (r *Result) TotalTriangles() int64 {
	var sum int64
	for _, c := range r.Triangles {
		sum += c
	}
	return sum / 3
}

// SetOutputs decodes a float64 vertex-value plane — the representation
// every runtime computes on — into the typed output of the workload
// kind: ranks as they are, WCC labels, hop distances, triangle counts,
// or LPA community labels canonicalized to the smallest member id.
func (r *Result) SetOutputs(k Kind, values []float64) {
	switch k {
	case PageRank:
		r.Ranks = values
	case WCC:
		r.Labels = LabelsFromValues(values)
	case SSSP, KHop:
		r.Dist = DistancesFromValues(values)
	case Triangle:
		r.Triangles = make([]int64, len(values))
		for i, v := range values {
			r.Triangles[i] = int64(v)
		}
	case LPA:
		r.Labels = graph.CanonicalizeLabels(LabelsFromValues(values))
	}
}

// DistancesFromValues converts float vertex values to the int32 hop
// distances used by the oracles (-1 for unreached).
func DistancesFromValues(values []float64) []int32 {
	out := make([]int32, len(values))
	for i, v := range values {
		if math.IsInf(v, 1) {
			out[i] = -1
		} else {
			out[i] = int32(v)
		}
	}
	return out
}

// LabelsFromValues converts float vertex values to vertex-id labels.
func LabelsFromValues(values []float64) []graph.VertexID {
	out := make([]graph.VertexID, len(values))
	for i, v := range values {
		out[i] = graph.VertexID(v)
	}
	return out
}

// The run frame. Every Engine.Run is Begin, a sequence of Timed phases
// in run order, and Finish(c, r.Err). The frame holds the one invariant
// the paper's attribution (§4.2) rests on: every modeled second lands
// in exactly one of Load / Exec / Save / Overhead — also when the run
// dies inside a phase — so TotalTime() equals the cluster clock.

// Begin opens a run's Result and turns on the cluster's memory
// sampling when the options ask for the Figure 10 timelines.
func Begin(c *sim.Cluster, system string, d *Dataset, w Workload, opt Options) *Result {
	if opt.SampleMemory {
		c.EnableSampling()
	}
	return &Result{System: system, Dataset: d.Name, Workload: w, Machines: c.Size()}
}

// Timed runs one phase of a run on the modeled clock: the seconds do
// advances the cluster by are added to *slot (one of r's Load, Exec,
// Save, Overhead) whether or not do fails. The first failure sticks in
// r.Err and every later Timed call is skipped, so an engine lists its
// phases in order and checks nothing in between.
func (r *Result) Timed(c *sim.Cluster, slot *float64, do func() error) {
	if r.Err != nil {
		return
	}
	mark := c.Clock()
	r.Err = do()
	*slot += c.Clock() - mark
}

// SaveResults charges the save phase five of the engines share: one
// 16-byte result record per paper-scale vertex written to HDFS.
func SaveResults(c *sim.Cluster, d *Dataset, vertices int) error {
	resultBytes := int64(float64(vertices) * d.Scale * 16)
	return c.Advance(hdfs.WriteSeconds(resultBytes, c.Size(), c.Config().DiskBW, c.Config().NetBW))
}

// Finish populates the status and resource fields of r from the given
// error and the cluster's final state, and returns r for chaining.
func (r *Result) Finish(c *sim.Cluster, err error) *Result {
	r.Status = sim.StatusOf(err)
	r.Err = err
	r.NetBytes = c.TotalNetBytes()
	r.MemTotal = c.TotalMemPeak()
	r.MemMax = c.MaxMemPeak()
	for _, m := range c.Machines() {
		r.CPUUser += m.CPUUser
		r.CPUIO += m.CPUIO
		r.CPUNet += m.CPUNet
		r.CPUIdle += m.CPUIdle
	}
	r.MemTimeline = c.Samples()
	return r
}

// Engine is one of the eight systems under study.
type Engine interface {
	// Name returns the system name as used in the paper's figures
	// (e.g. "giraph", "blogel-v", "graphlab").
	Name() string
	// Run executes the workload on the dataset over the given cluster.
	// The returned Result always carries a Status; Run does not return
	// an error because failed runs (OOM/TO/...) are results, not
	// errors, in this study.
	Run(c *sim.Cluster, d *Dataset, w Workload, opt Options) *Result
}

// Dataset is the handle engines receive: the prepared graph every run
// computes on (shared and read-only), the views derived from it that are
// work of the load phase — a function of the dataset and at most the
// machine count, built once and shared read-only like the graph (see
// View) — the catalogue entries of its three on-disk formats in
// simulated HDFS, and the metadata needed for cost accounting.
type Dataset struct {
	Name        string
	Graph       *graph.Graph
	FS          *hdfs.FS
	PathPrefix  string
	NumVertices int
	Scale       float64 // paper-scale multiplier (graph.ScaleFactor)
	Source      graph.VertexID

	// Paper-scale file sizes per format, for I/O cost accounting.
	PaperBytes map[graph.Format]int64

	// DilationSSSP and DilationWCC are the iteration-dilation factors
	// for the traversal workloads: how many paper-scale BSP iterations
	// one synthetic iteration stands for. Down-scaling a graph shrinks
	// its diameter, so a synthetic traversal finishes in fewer
	// supersteps than the real dataset's; engines multiply
	// per-superstep charges by the factor to keep the modeled clock at
	// paper scale (the WRN timeout matrix depends on it). SSSP's factor
	// is normalized by the source's directed eccentricity, WCC's by the
	// undirected label-propagation depth. Values below 1 mean 1.
	DilationSSSP float64
	DilationWCC  float64

	viewMu sync.Mutex // guards the map only, never held across a build
	views  map[any]*view
}

// view is the once-entry of one derived view.
type view struct {
	arg   int
	build sync.Once
	v     any
}

// View returns the view of d's graph stored under key, building it on
// first use: concurrent first callers coalesce onto one build, which
// runs outside the dataset's lock. arg is what the view depends on
// besides the dataset (a machine count; 0 for none). A key holds one
// view: asking with another arg drops the held one and builds anew, so
// what a dataset retains is bounded by its keys, not by the arguments
// clients choose. Views are shared by every run and must not be written.
func View[T any](d *Dataset, key any, arg int, build func() T) T {
	d.viewMu.Lock()
	e := d.views[key]
	if e == nil || e.arg != arg {
		if d.views == nil {
			d.views = make(map[any]*view)
		}
		e = &view{arg: arg}
		d.views[key] = e
	}
	d.viewMu.Unlock()
	e.build.Do(func() { e.v = build() })
	return e.v.(T)
}

type undirectedKey struct{}

// Undirected returns the undirected view of d.Graph, the graph WCC's
// label propagation and GVD's block growth run on.
func (d *Dataset) Undirected() *graph.Graph {
	return View(d, undirectedKey{}, 0, d.Graph.Undirected)
}

// DilationFor returns the iteration-dilation factor (>= 1) for the
// workload kind; non-traversal workloads are never dilated.
func (d *Dataset) DilationFor(k Kind) float64 {
	var v float64
	switch k {
	case SSSP:
		v = d.DilationSSSP
	case WCC:
		v = d.DilationWCC
	}
	if v < 1 {
		return 1
	}
	return v
}

// DilatedIterations reports a synthetic iteration count at paper scale:
// iters times the kind's dilation factor, rounded to nearest.
func (d *Dataset) DilatedIterations(k Kind, iters int) int {
	return int(float64(iters)*d.DilationFor(k) + 0.5)
}

// Path returns the HDFS path of the dataset in the given format.
func (d *Dataset) Path(f graph.Format) string {
	return d.PathPrefix + "." + f.String()
}

// Open returns the dataset file in the given format.
func (d *Dataset) Open(f graph.Format) (*hdfs.File, error) {
	return d.FS.Open(d.Path(f))
}

// FileBytes returns the paper-scale size of the dataset in format f.
func (d *Dataset) FileBytes(f graph.Format) int64 { return d.PaperBytes[f] }

// Prepare registers g's three on-disk formats in fs under prefix, each
// split into `chunks` chunks, and returns the Dataset handle holding g.
// Load phases are charged from the registered paper-scale sizes and
// chunk counts; no bytes are encoded. The sizes are estimated from real
// per-format byte rates: ~21 B/edge for the edge format (fitted to
// Table 5's block counts), 9 B/edge + 8 B/vertex for adj, and adj plus
// 4 B/vertex for adj-long (real datasets carry ~9-digit ids).
func Prepare(fs *hdfs.FS, g *graph.Graph, prefix string, chunks int, source graph.VertexID) (*Dataset, error) {
	scale := g.ScaleFactor()
	pv := float64(g.NumVertices()) * scale
	pe := float64(g.NumEdges()) * scale
	d := &Dataset{
		Name:        g.Name(),
		Graph:       g,
		FS:          fs,
		PathPrefix:  prefix,
		NumVertices: g.NumVertices(),
		Scale:       scale,
		Source:      source,
		PaperBytes: map[graph.Format]int64{
			graph.FormatEdge:    int64(pe * hdfs.EdgeFormatBytesPerEdge),
			graph.FormatAdj:     int64(pe*9 + pv*8),
			graph.FormatAdjLong: int64(pe*9 + pv*12),
		},
	}
	for f, bytes := range d.PaperBytes {
		fs.Create(d.Path(f), bytes, chunks)
	}
	return d, nil
}
