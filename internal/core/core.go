// Package core is the experiment framework that ties the repository
// together: the registry of the systems under study (with the paper's
// run-label variants), cached dataset fixtures, and a runner that
// executes (system × workload × dataset × cluster size) grids on fresh
// simulated clusters.
package core

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"graphbench/internal/blogel"
	"graphbench/internal/dataflow"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/gas"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/graphx"
	"graphbench/internal/haloop"
	"graphbench/internal/hdfs"
	"graphbench/internal/mapreduce"
	"graphbench/internal/par"
	"graphbench/internal/partition"
	"graphbench/internal/plan"
	"graphbench/internal/pregel"
	"graphbench/internal/relational"
	"graphbench/internal/sim"
)

// ClusterSizes are the paper's scale-out points (Table 2).
var ClusterSizes = []int{16, 32, 64, 128}

// System is one entry of the study: an engine constructor plus the
// option variant it runs under, labeled as in the paper's figures.
type System struct {
	Key   string // stable identifier, e.g. "gl-s-r-t"
	Label string // figure abbreviation, e.g. "GL-S-R-T"
	New   func() engine.Engine
	Opt   engine.Options

	// Tweak adjusts the workload (e.g. the fixed-iteration PageRank
	// variants). May be nil.
	Tweak func(w engine.Workload) engine.Workload

	// PageRankOnly marks variants the paper only evaluates on PageRank
	// (the asynchronous and tolerance/iteration GraphLab variants).
	PageRankOnly bool

	// MaxMachines, when positive, is the largest cluster the system
	// runs on: GraphLab and GraphX place edges by vertex cut, which is
	// built for at most partition.MaxVertexCutMachines.
	MaxMachines int
}

func fixedIters(n int) func(engine.Workload) engine.Workload {
	return func(w engine.Workload) engine.Workload {
		if w.Kind == engine.PageRank {
			w.Tolerance = 0
			w.MaxIterations = n
		}
		return w
	}
}

// Systems returns the full registry in the paper's figure order. The
// GraphLab entries mirror the six variants of §5: (A/S)ync × (A/R)
// partitioning × (T/I) stopping.
func Systems() []System {
	newGelly := func() engine.Engine { return dataflow.New() }
	const vcMax = partition.MaxVertexCutMachines
	return []System{
		{Key: "blogel-b", Label: "BB", New: func() engine.Engine { return blogel.NewB() }},
		{Key: "blogel-v", Label: "BV", New: func() engine.Engine { return blogel.NewV() }},
		{Key: "giraph", Label: "G", New: func() engine.Engine { return pregel.New() }},
		{Key: "gl-a-a-t", Label: "GL-A-A-T", New: func() engine.Engine { return gas.New() },
			Opt: engine.Options{Async: true, Partitioning: "auto"}, PageRankOnly: true, MaxMachines: vcMax},
		{Key: "gl-a-r-t", Label: "GL-A-R-T", New: func() engine.Engine { return gas.New() },
			Opt: engine.Options{Async: true}, PageRankOnly: true, MaxMachines: vcMax},
		{Key: "gl-s-a-i", Label: "GL-S-A-I", New: func() engine.Engine { return gas.New() },
			Opt: engine.Options{Partitioning: "auto"}, Tweak: fixedIters(30), MaxMachines: vcMax},
		{Key: "gl-s-a-t", Label: "GL-S-A-T", New: func() engine.Engine { return gas.New() },
			Opt: engine.Options{Partitioning: "auto"}, PageRankOnly: true, MaxMachines: vcMax},
		{Key: "gl-s-r-i", Label: "GL-S-R-I", New: func() engine.Engine { return gas.New() },
			Tweak: fixedIters(30), MaxMachines: vcMax},
		{Key: "gl-s-r-t", Label: "GL-S-R-T", New: func() engine.Engine { return gas.New() },
			PageRankOnly: true, MaxMachines: vcMax},
		{Key: "hadoop", Label: "HD", New: func() engine.Engine { return mapreduce.New() }},
		{Key: "haloop", Label: "HL", New: func() engine.Engine { return haloop.New() }},
		{Key: "graphx", Label: "S", New: func() engine.Engine { return graphx.New() }, MaxMachines: vcMax},
		{Key: "gelly", Label: "FG", New: newGelly},
	}
}

// MainGridSystems returns the systems of Figures 5 and 7–9 (non-
// PageRank workloads): the GraphLab iteration variants only.
func MainGridSystems() []System {
	var out []System
	for _, s := range Systems() {
		if !s.PageRankOnly {
			out = append(out, s)
		}
	}
	return out
}

// Runs reports whether the variant is evaluated on the workload kind:
// every system runs every kind except the PageRank-only variants. Both
// binaries reject a pair it refuses.
func (s System) Runs(k engine.Kind) bool { return !s.PageRankOnly || k == engine.PageRank }

// RunsOn reports whether the system runs on a cluster of the given
// size. Both binaries reject a size it refuses.
func (s System) RunsOn(machines int) bool { return s.MaxMachines == 0 || machines <= s.MaxMachines }

// SystemByKey returns the system with the given key: a registry entry
// or Vertica — looked at apart, not appended to a grown copy of the
// registry, because graphserve resolves a key on every request.
func SystemByKey(key string) (System, error) {
	for _, s := range Systems() {
		if s.Key == key {
			return s, nil
		}
	}
	if v := Vertica(); v.Key == key {
		return v, nil
	}
	return System{}, fmt.Errorf("core: unknown system %q", key)
}

// Vertica returns the relational system entry. It is kept out of the
// main grid, as in the paper (§5.11: trial license, Figures 12–13 only).
func Vertica() System {
	return System{Key: "vertica", Label: "V", New: func() engine.Engine { return relational.New() }}
}

// Runner executes experiments at a fixed dataset scale, caching
// prepared fixtures. Every run owns a private sim.Cluster and engine
// instance, so the experiment matrix is embarrassingly parallel:
// Workers bounds how many runs execute concurrently and Shards how
// many worker goroutines each run's engine loops use. Both knobs only
// change wall time — modeled results are bit-identical at any setting.
type Runner struct {
	Scale float64
	Seed  int64

	// Workers is the concurrent-run budget of RunGrid and the harness
	// artifact generators (0 = GOMAXPROCS, 1 = sequential). It is the
	// -parallel flag of cmd/graphbench.
	Workers int

	// Shards, when non-zero, is the per-run engine shard count applied
	// to systems that don't pin one themselves (engine.Options.Shards).
	Shards int

	// SnapshotDir, when non-empty, caches generated dataset fixtures
	// as binary CSR snapshots (internal/snapshot) in that directory,
	// keyed by (name, scale, seed, format version): the first run
	// generates and saves, later runs — and CI jobs restoring the
	// directory — load the snapshot instead of regenerating. Loads are
	// bit-identical to generation, so results and modeled costs do not
	// depend on which path a fixture arrived by. NewRunner seeds it
	// from $GRAPHBENCH_SNAPSHOT_DIR; cmd/graphbench's -snapshot-dir
	// overrides. Set before the first Dataset call.
	SnapshotDir string

	// MemoryBudget, when positive, bounds the host-side working set of
	// every run this runner executes: a shared govern.Governor charges
	// the engines' large allocations against it, and runs degrade in
	// tiers — shed scratch, demand-page snapshot arenas, go out-of-core
	// with spill-to-disk — instead of growing past the budget. Runs
	// whose floor does not fit fail with an error unwrapping to
	// govern.ErrBudget. NewRunner seeds it from $GRAPHBENCH_MEM_BUDGET
	// (govern.ParseBytes syntax, e.g. "512m"); cmd flags override. Set
	// before the first run.
	MemoryBudget int64

	mu       sync.Mutex // guards the fields below, never held across generation or profiling
	fixtures map[datasets.Name]*fixture
	planner  *plan.Planner
	pool     *par.Pool
	governor *govern.Governor
	governed bool // governor initialized (possibly to nil on error)
}

// NewRunner returns a Runner at the given reduction scale (0 means
// datasets.DefaultScale). The snapshot cache directory defaults to
// $GRAPHBENCH_SNAPSHOT_DIR, so CI can point every runner at a restored
// fixture cache without threading a flag through each entry point.
func NewRunner(scale float64, seed int64) *Runner {
	if scale <= 0 {
		scale = datasets.DefaultScale
	}
	budget, err := govern.ParseBytes(os.Getenv("GRAPHBENCH_MEM_BUDGET"))
	if err != nil {
		// A malformed budget must not silently run ungoverned — but
		// NewRunner has no error path, so surface it loudly and run
		// without a budget rather than guessing one.
		fmt.Fprintf(os.Stderr, "graphbench: ignoring $GRAPHBENCH_MEM_BUDGET: %v\n", err)
		budget = 0
	}
	return &Runner{
		Scale:        scale,
		Seed:         seed,
		SnapshotDir:  os.Getenv("GRAPHBENCH_SNAPSHOT_DIR"),
		MemoryBudget: budget,
		fixtures:     make(map[datasets.Name]*fixture),
	}
}

// Governor returns the runner's shared memory governor, created on
// first use from MemoryBudget (nil — governing disabled — when the
// budget is zero or the spill root cannot be created). MemoryBudget
// must be set before the first run.
func (r *Runner) Governor() *govern.Governor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.governorLocked()
}

func (r *Runner) governorLocked() *govern.Governor {
	if !r.governed {
		g, err := govern.New(r.MemoryBudget, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "graphbench: memory governor disabled: %v\n", err)
		}
		r.governor = g
		r.governed = true
	}
	return r.governor
}

// fixture is the once-entry of one dataset name: its dataset is
// prepared, and its planner profile built, once each and outside the
// runner's mutex, so a cold name stalls only the callers that asked for
// it.
type fixture struct {
	prepare sync.Once
	d       *engine.Dataset
	err     error

	profile sync.Once
	p       *plan.Profile
}

// prepared returns name's entry with its dataset prepared.
func (r *Runner) prepared(name datasets.Name) (*fixture, error) {
	r.mu.Lock()
	f, ok := r.fixtures[name]
	if !ok && datasets.Known(name) {
		f = &fixture{}
		r.fixtures[name] = f
	}
	r.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("core: unknown dataset %q", name)
	}
	f.prepare.Do(func() { f.d, f.err = r.prepare(name) })
	return f, f.err
}

// TryDataset returns the prepared fixture for name, generating it on
// first use — or loading its cached snapshot when SnapshotDir is set.
// An unknown dataset name or a fixture-preparation failure is returned
// as an error: long-lived callers (internal/serve) degrade one request
// instead of killing the process. CLI entry points that want the old
// die-on-bad-fixture behaviour use the Dataset shim.
func (r *Runner) TryDataset(name datasets.Name) (*engine.Dataset, error) {
	f, err := r.prepared(name)
	if err != nil {
		return nil, err
	}
	return f.d, nil
}

// prepare generates name's graph — or loads its cached snapshot — and
// wraps it as a Dataset. Called once per name, without r.mu held.
func (r *Runner) prepare(name datasets.Name) (*engine.Dataset, error) {
	opt := datasets.Options{Scale: r.Scale, Seed: r.Seed}
	var g *graph.Graph
	if r.SnapshotDir != "" {
		cache := datasets.NewCache(r.SnapshotDir)
		// Soft pressure: load the snapshot arena demand-paged instead
		// of prefaulted, so cold fixture regions never turn resident.
		if r.Governor().Pressure() >= govern.PressureSoft {
			cache.Lazy = true
		}
		g = cache.Generate(name, opt)
	} else {
		g = datasets.Generate(name, opt)
	}
	src := datasets.SourceVertex(g, 42)
	d, err := engine.Prepare(hdfs.New(), g, "data/"+string(name), 64, src)
	if err != nil {
		return nil, fmt.Errorf("core: preparing %s: %w", name, err)
	}
	d.DilationSSSP = datasets.TraversalDilation(name, g, src)
	d.DilationWCC = datasets.WCCDilation(name, g)
	return d, nil
}

// Planner returns the runner's shared adaptive planner, created on
// first use.
func (r *Runner) Planner() *plan.Planner {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.planner == nil {
		r.planner = plan.New()
	}
	return r.planner
}

// TryProfile returns the planner profile of a dataset, built on first
// use from the prepared graph and cached — profiles cost a few linear
// passes, decisions against them are table lookups.
func (r *Runner) TryProfile(name datasets.Name) (*plan.Profile, error) {
	f, err := r.prepared(name)
	if err != nil {
		return nil, err
	}
	f.profile.Do(func() { f.p = plan.NewProfile(f.d, f.d.Graph) })
	return f.p, nil
}

// TryDecide asks the planner for the configuration of one request
// cell. The runner's MemoryBudget rides along so the decision can
// pre-pick the out-of-core tier.
func (r *Runner) TryDecide(name datasets.Name, kind engine.Kind, machines int) (*plan.Decision, error) {
	p, err := r.TryProfile(name)
	if err != nil {
		return nil, err
	}
	req := plan.Request{
		Dataset:      string(name),
		Workload:     kind.String(),
		Machines:     machines,
		MemoryBudget: r.MemoryBudget,
	}
	return r.Planner().Decide(p, req), nil
}

// Dataset is the panic-wrapping shim over TryDataset for CLI callers
// and the harness, where a bad fixture is unrecoverable.
func (r *Runner) Dataset(name datasets.Name) *engine.Dataset {
	d, err := r.TryDataset(name)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// TryWorkload builds the workload instance for a dataset (the source
// vertex is per dataset, §3.3), propagating fixture errors.
func (r *Runner) TryWorkload(kind engine.Kind, name datasets.Name) (engine.Workload, error) {
	d, err := r.TryDataset(name)
	if err != nil {
		return engine.Workload{}, err
	}
	switch kind {
	case engine.PageRank:
		return engine.NewPageRank(), nil
	case engine.WCC:
		return engine.NewWCC(), nil
	case engine.SSSP:
		return engine.NewSSSP(d.Source), nil
	case engine.Triangle:
		return engine.NewTriangleCount(), nil
	case engine.LPA:
		return engine.NewLPA(), nil
	default:
		return engine.NewKHop(d.Source), nil
	}
}

// Workload is the panic-wrapping shim over TryWorkload.
func (r *Runner) Workload(kind engine.Kind, name datasets.Name) engine.Workload {
	w, err := r.TryWorkload(kind, name)
	if err != nil {
		panic(err.Error())
	}
	return w
}

// MatrixShards returns the per-run engine shard count for runs that
// execute concurrently on the matrix pool: the -shards override when
// set, otherwise just enough to keep GOMAXPROCS busy once multiplied
// by the pool's worker count — the two parallelism layers compose to
// ~GOMAXPROCS goroutines instead of its square.
func (r *Runner) MatrixShards() int {
	return matrixShards(r.Shards, r.Pool().Workers(), runtime.GOMAXPROCS(0))
}

// matrixShards computes the per-run shard default: the explicit
// override when set, otherwise ceil(procs/workers) so workers × shards
// covers every core. Floor division here was a latent bug: 3 workers on
// 8 cores yielded 2 shards × 3 workers = 6 goroutines, idling two
// cores.
func matrixShards(override, workers, procs int) int {
	if override != 0 {
		return override
	}
	if workers >= procs {
		return 1
	}
	return (procs + workers - 1) / workers
}

// MatrixOptions applies the matrix shard default to opt, for harness
// code that runs engines directly (bypassing Run) on the pool.
func (r *Runner) MatrixOptions(opt engine.Options) engine.Options {
	if opt.Shards == 0 {
		opt.Shards = r.MatrixShards()
	}
	return opt
}

// Run executes one experiment on a fresh cluster. A standalone run has
// the engine to itself, so its loops default to GOMAXPROCS shards.
func (r *Runner) Run(s System, name datasets.Name, kind engine.Kind, machines int) *engine.Result {
	res, err := r.tryRun(s, name, kind, machines, r.Shards, nil, FaultOpts{})
	if err != nil {
		panic(err.Error())
	}
	return res
}

// TryRun is Run with fixture failures returned as errors instead of
// panics — the run path long-lived servers use. Note the distinction:
// a *failed run* (OOM, timeout, …) is still a Result with a non-OK
// Status, because failures are findings in this study; only problems
// that prevent the run from starting at all (unknown dataset, broken
// fixture) are errors.
func (r *Runner) TryRun(s System, name datasets.Name, kind engine.Kind, machines int) (*engine.Result, error) {
	return r.tryRun(s, name, kind, machines, r.Shards, nil, FaultOpts{})
}

// FaultOpts configures fault injection and recovery for one run.
type FaultOpts struct {
	// Injector, when non-nil, is installed on the run's fresh cluster
	// (internal/chaos builds seeded one-shot injectors).
	Injector sim.Injector
	// Recover enables the engine's fault tolerance, threading through
	// to engine.Options.Recover.
	Recover bool
	// CheckpointEvery overrides the recovery checkpoint cadence
	// (engine.Options.CheckpointEvery); 0 keeps the engine default.
	CheckpointEvery int

	// Plan, when non-nil, applies the planner decision's configuration
	// to the run (shards, shard plan, direction, memory tier). The
	// system is still chosen by the caller — TryRunPlanned resolves the
	// decision's system key and sets this field.
	Plan *plan.Decision
}

// TryRunPlanned executes a planner decision: the decision's system,
// cluster size, and configuration knobs.
func (r *Runner) TryRunPlanned(pool *par.Pool, f FaultOpts, d *plan.Decision, name datasets.Name, kind engine.Kind) (*engine.Result, error) {
	s, err := SystemByKey(d.System)
	if err != nil {
		return nil, err
	}
	if !s.RunsOn(d.Machines) {
		return nil, fmt.Errorf("core: planned system %q runs on at most %d machines, got %d", s.Key, s.MaxMachines, d.Machines)
	}
	f.Plan = d
	return r.tryRun(s, name, kind, d.Machines, r.Shards, pool, f)
}

// TryRunAuto is the planner-driven run path: decide, then execute the
// decision. The decision is returned alongside the result so callers
// can expose the trace.
func (r *Runner) TryRunAuto(pool *par.Pool, f FaultOpts, name datasets.Name, kind engine.Kind, machines int) (*engine.Result, *plan.Decision, error) {
	d, err := r.TryDecide(name, kind, machines)
	if err != nil {
		return nil, nil, err
	}
	res, err := r.TryRunPlanned(pool, f, d, name, kind)
	if err != nil {
		return nil, nil, err
	}
	return res, d, nil
}

// TryRunFault is TryRun with the engine's shard loops borrowing the
// given persistent pool (serve mode keeps one warm per admission slot,
// so steady-state requests spawn no goroutines; nil means a private
// pool) and a fault-injection plan: the run's cluster gets the injector,
// and the engine runs with recovery configured per f. The serve path
// and the fault-matrix tests use this to compare faulted runs against
// clean ones.
func (r *Runner) TryRunFault(pool *par.Pool, f FaultOpts, s System, name datasets.Name, kind engine.Kind, machines int) (*engine.Result, error) {
	return r.tryRun(s, name, kind, machines, r.Shards, pool, f)
}

func (r *Runner) run(s System, name datasets.Name, kind engine.Kind, machines, shards int) *engine.Result {
	res, err := r.tryRun(s, name, kind, machines, shards, nil, FaultOpts{})
	if err != nil {
		panic(err.Error())
	}
	return res
}

func (r *Runner) tryRun(s System, name datasets.Name, kind engine.Kind, machines, shards int, pool *par.Pool, f FaultOpts) (*engine.Result, error) {
	d, err := r.TryDataset(name)
	if err != nil {
		return nil, err
	}
	w, err := r.TryWorkload(kind, name)
	if err != nil {
		return nil, err
	}
	if s.Tweak != nil {
		w = s.Tweak(w)
	}
	opt := s.Opt
	if f.Plan != nil {
		// A planner decision overrides the run-shape knobs. None of
		// them changes modeled results (the bit-identity contracts of
		// shards/plan/direction/tier), so planned and fixed runs stay
		// comparable.
		if f.Plan.Shards > 0 {
			opt.Shards = f.Plan.Shards
		}
		opt.ShardPlan = f.Plan.ShardPlan
		opt.Direction = f.Plan.Direction
		opt.MemoryTier = f.Plan.MemoryTier
	}
	if opt.Shards == 0 {
		opt.Shards = shards
	}
	opt.Pool = pool
	if f.Recover {
		opt.Recover = true
	}
	if f.CheckpointEvery > 0 {
		opt.CheckpointEvery = f.CheckpointEvery
	}
	// GraphX runs with the paper's tuned partition counts (Table 5)
	// unless the experiment overrides them.
	if s.Key == "graphx" && opt.NumPartitions == 0 {
		opt.NumPartitions = graphx.TunedPartitions(d, machines)
	}
	opt.Governor = r.Governor()
	c := sim.NewSize(machines)
	if f.Injector != nil {
		c.SetInjector(f.Injector)
	}
	res := s.New().Run(c, d, w, opt)
	res.System = s.Label
	return res, nil
}

// Cell identifies one grid entry.
type Cell struct {
	System   System
	Dataset  datasets.Name
	Kind     engine.Kind
	Machines int
}

// Pool returns the runner's experiment-matrix worker pool, sized by
// Workers and created on first use: the persistent workers are shared
// by every grid and artifact generator the runner serves, so repeated
// harness calls dispatch onto warm goroutines instead of spawning.
// Workers must therefore be set before the first Pool, RunGrid, or
// harness call. The pool is shut down by its finalizer when the runner
// is abandoned.
func (r *Runner) Pool() *par.Pool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pool == nil {
		r.pool = par.New(r.Workers)
	}
	return r.pool
}

// Close shuts down the runner's matrix pool and memory governor, if
// created. The pool finalizer would eventually do the same; owners with
// a clear lifecycle (a server shutting down, a test) should call Close
// so goroutine accounting is deterministic and the governor's spill
// root is removed promptly.
func (r *Runner) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pool != nil {
		r.pool.Close()
		r.pool = nil
	}
	if r.governor != nil {
		_ = r.governor.Close()
		r.governor = nil
	}
	r.governed = false
}

// RunGrid executes the cells concurrently on the runner's pool (each
// run on its own simulated cluster) and returns results in the input
// order.
func (r *Runner) RunGrid(cells []Cell) []*engine.Result {
	// Warm the fixture cache serially to keep generation single.
	for _, c := range cells {
		r.Dataset(c.Dataset)
	}
	shards := r.MatrixShards()
	return par.Map(r.Pool(), len(cells), func(i int) *engine.Result {
		c := cells[i]
		return r.run(c.System, c.Dataset, c.Kind, c.Machines, shards)
	})
}

// BestParallel returns the completed result with the smallest total
// time among the given results, or nil if none completed.
func BestParallel(results []*engine.Result) *engine.Result {
	var best *engine.Result
	for _, res := range results {
		if res == nil || res.Status != sim.OK {
			continue
		}
		if best == nil || res.TotalTime() < best.TotalTime() {
			best = res
		}
	}
	return best
}

// SortedKeys returns the registry keys, sorted — a convenience for CLIs.
func SortedKeys() []string {
	var keys []string
	for _, s := range append(Systems(), Vertica()) {
		keys = append(keys, s.Key)
	}
	sort.Strings(keys)
	return keys
}
