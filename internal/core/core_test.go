package core

import (
	"reflect"
	"runtime"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/par"
	"graphbench/internal/sim"
)

func TestRegistryLabels(t *testing.T) {
	systems := Systems()
	if len(systems) != 13 {
		t.Fatalf("registry has %d systems, want 13 (8 systems, GL in 6 variants)", len(systems))
	}
	seen := map[string]bool{}
	for _, s := range systems {
		if seen[s.Key] {
			t.Errorf("duplicate key %q", s.Key)
		}
		seen[s.Key] = true
		if s.New == nil {
			t.Errorf("%s has no constructor", s.Key)
		}
	}
	// The paper's non-PageRank grids use only the GL iteration variants.
	main := MainGridSystems()
	for _, s := range main {
		if s.PageRankOnly {
			t.Errorf("%s leaked into the main grid", s.Key)
		}
	}
	if len(main) != 9 {
		t.Errorf("main grid has %d systems, want 9", len(main))
	}
}

func TestSystemByKey(t *testing.T) {
	if _, err := SystemByKey("giraph"); err != nil {
		t.Fatal(err)
	}
	if _, err := SystemByKey("nope"); err == nil {
		t.Fatal("unknown key accepted")
	}
	for _, key := range SortedKeys() {
		if s, err := SystemByKey(key); err != nil || s.Key != key {
			t.Errorf("listed key %q resolves to %q, %v", key, s.Key, err)
		}
	}
	if s, _ := SystemByKey("vertica"); s.Label != "V" {
		t.Fatal("vertica label")
	}
	if s, _ := SystemByKey("gl-a-r-t"); s.Runs(engine.WCC) || !s.Runs(engine.PageRank) {
		t.Error("a PageRank-only variant runs PageRank and nothing else")
	}
}

func TestRunnerFixtureCache(t *testing.T) {
	r := NewRunner(2_000_000, 1)
	a := r.Dataset(datasets.Twitter)
	b := r.Dataset(datasets.Twitter)
	if a != b {
		t.Fatal("fixture not cached")
	}
	if a.DilationSSSP < 1 || a.DilationWCC < 1 {
		t.Fatalf("dilations not set: %+v", a)
	}
}

// TestMatrixShardsCoversEveryCore: the matrix shard default must round
// up, so workers × shards ≥ GOMAXPROCS — floor division left cores idle
// (8 procs / 3 workers = 2 shards × 3 workers = 6 goroutines).
func TestMatrixShardsCoversEveryCore(t *testing.T) {
	cases := []struct{ override, workers, procs, want int }{
		{0, 1, 1, 1},
		{0, 1, 8, 8},
		{0, 2, 8, 4},
		{0, 3, 8, 3},  // floor gave 2: the reported bug
		{0, 5, 8, 2},  // floor gave 1
		{0, 7, 8, 2},  // floor gave 1
		{0, 8, 8, 1},  // workers alone cover the cores
		{0, 16, 8, 1}, // oversubscribed pool still gets sequential runs
		{0, 3, 4, 2},
		{0, 2, 3, 2},
		{0, 6, 64, 11}, // ceil(64/6)
		{4, 3, 8, 4},   // explicit -shards override wins
		{1, 1, 64, 1},
	}
	for _, c := range cases {
		got := matrixShards(c.override, c.workers, c.procs)
		if got != c.want {
			t.Errorf("matrixShards(override=%d, workers=%d, procs=%d) = %d, want %d",
				c.override, c.workers, c.procs, got, c.want)
		}
		if c.override == 0 && got*c.workers < c.procs {
			t.Errorf("workers=%d procs=%d: %d shards × %d workers = %d goroutines idles cores",
				c.workers, c.procs, got, c.workers, got*c.workers)
		}
	}
	// Through the runner: a 3-worker pool on this machine must cover
	// GOMAXPROCS.
	r := NewRunner(2_000_000, 1)
	r.Workers = 3
	defer r.Close()
	if got, procs := r.MatrixShards(), runtime.GOMAXPROCS(0); got*3 < procs {
		t.Errorf("MatrixShards() = %d with 3 workers on %d procs", got, procs)
	}
}

// TestTryDatasetErrors: the serve-mode fixture path reports problems as
// errors; the CLI shim still panics.
func TestTryDatasetErrors(t *testing.T) {
	r := NewRunner(2_000_000, 1)
	if _, err := r.TryDataset("no-such-dataset"); err == nil {
		t.Fatal("TryDataset accepted an unknown name")
	}
	if _, err := r.TryWorkload(engine.PageRank, "no-such-dataset"); err == nil {
		t.Fatal("TryWorkload accepted an unknown name")
	}
	s, _ := SystemByKey("giraph")
	if _, err := r.TryRun(s, "no-such-dataset", engine.PageRank, 16); err == nil {
		t.Fatal("TryRun accepted an unknown name")
	}
	if d, err := r.TryDataset(datasets.Twitter); err != nil || d == nil {
		t.Fatalf("TryDataset(twitter) = %v, %v", d, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Dataset shim did not panic on an unknown name")
			}
		}()
		r.Dataset("no-such-dataset")
	}()
}

// TestTryRunFaultBorrowedPool: a run on an externally owned pool must
// not close it, and must produce the same result as a standalone run
// (shard count only changes wall time).
func TestTryRunFaultBorrowedPool(t *testing.T) {
	r := NewRunner(2_000_000, 1)
	s, _ := SystemByKey("giraph")
	pool := par.New(2)
	defer pool.Close()
	a, err := r.TryRunFault(pool, FaultOpts{}, s, datasets.Twitter, engine.PageRank, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.TryRunFault(pool, FaultOpts{}, s, datasets.Twitter, engine.PageRank, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != sim.OK || b.Status != sim.OK {
		t.Fatalf("borrowed-pool runs failed: %v, %v", a.Status, b.Status)
	}
	cold := r.Run(s, datasets.Twitter, engine.PageRank, 16)
	if !reflect.DeepEqual(a.Ranks, cold.Ranks) || !reflect.DeepEqual(b.Ranks, cold.Ranks) {
		t.Fatal("borrowed-pool run diverged from standalone run")
	}
}

func TestRunnerDefaultScale(t *testing.T) {
	if r := NewRunner(0, 1); r.Scale != datasets.DefaultScale {
		t.Fatalf("Scale = %v", r.Scale)
	}
}

func TestWorkloadPerDataset(t *testing.T) {
	r := NewRunner(2_000_000, 1)
	w := r.Workload(engine.SSSP, datasets.Twitter)
	if w.Source != r.Dataset(datasets.Twitter).Source {
		t.Fatal("SSSP source not wired to the dataset")
	}
	if k := r.Workload(engine.KHop, datasets.Twitter); k.K != 3 {
		t.Fatal("K != 3")
	}
}

func TestRunAndGrid(t *testing.T) {
	r := NewRunner(2_000_000, 1)
	s, _ := SystemByKey("blogel-v")
	res := r.Run(s, datasets.Twitter, engine.KHop, 16)
	if res.Status != sim.OK {
		t.Fatalf("run failed: %v", res.Status)
	}
	if res.System != "BV" {
		t.Fatalf("result label = %q", res.System)
	}

	cells := []Cell{
		{System: s, Dataset: datasets.Twitter, Kind: engine.KHop, Machines: 16},
		{System: s, Dataset: datasets.Twitter, Kind: engine.KHop, Machines: 32},
	}
	results := r.RunGrid(cells)
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatal("grid lost results")
	}
	if results[0].Machines != 16 || results[1].Machines != 32 {
		t.Fatal("grid order not preserved")
	}
}

func TestGLVariantTweaks(t *testing.T) {
	s, _ := SystemByKey("gl-s-r-i")
	w := s.Tweak(engine.NewPageRank())
	if w.MaxIterations != 30 || w.Tolerance != 0 {
		t.Fatalf("iteration variant tweak = %+v", w)
	}
	// Non-PageRank workloads pass through unchanged.
	if w := s.Tweak(engine.NewWCC()); w.MaxIterations != 0 {
		t.Fatalf("WCC tweaked: %+v", w)
	}
}

func TestBestParallel(t *testing.T) {
	ok1 := &engine.Result{Status: sim.OK, Exec: 50}
	ok2 := &engine.Result{Status: sim.OK, Exec: 20}
	bad := &engine.Result{Status: sim.OOM, Exec: 1}
	if best := BestParallel([]*engine.Result{ok1, ok2, bad, nil}); best != ok2 {
		t.Fatalf("BestParallel picked %+v", best)
	}
	if best := BestParallel([]*engine.Result{bad}); best != nil {
		t.Fatal("failed run selected")
	}
}

func TestSortedKeys(t *testing.T) {
	keys := SortedKeys()
	if len(keys) != 14 {
		t.Fatalf("%d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("keys not sorted")
		}
	}
}

// TestColdFixtureDoesNotStallWarmOnes: preparing a dataset nobody has
// asked for yet (a serve query outside Config.Datasets "pays the
// generation cost on that request") must not make other callers pay it:
// lookups of an already prepared fixture, Governor and Planner — every
// /v1 request and every /metrics scrape makes them — return while the
// cold preparation is still outstanding.
func TestColdFixtureDoesNotStallWarmOnes(t *testing.T) {
	r := NewRunner(datasets.ScaleUpScale, 1)
	defer r.Close()
	warm := r.Dataset(datasets.Twitter)

	probed := make(chan struct{})
	inTime := make(chan bool, 1) // one send, by the cold caller
	go func() {
		_, err := r.TryDataset(datasets.ClueWeb) // ≳1 s at this scale
		if err != nil {
			t.Error(err)
		}
		select {
		case <-probed:
			inTime <- true
		default:
			inTime <- false
		}
	}()

	// Wait until the cold preparation has begun: its entry is registered
	// before generation starts.
	for registered := false; !registered; {
		runtime.Gosched()
		r.mu.Lock()
		_, registered = r.fixtures[datasets.ClueWeb]
		r.mu.Unlock()
	}
	if d, err := r.TryDataset(datasets.Twitter); err != nil || d != warm {
		t.Fatalf("TryDataset(twitter) = %p, %v; want the warm fixture %p", d, err, warm)
	}
	r.Governor()
	r.Planner()
	close(probed)

	if !<-inTime {
		t.Fatal("warm lookups returned only after the cold fixture's preparation")
	}
}

// TestPlannerChoosesOnlyWhatRuns: whatever the request cell, the system
// the planner decides on is one both binaries would accept pinned — it
// runs the workload and runs on the cluster size. Above
// partition.MaxVertexCutMachines that rules out GraphLab and GraphX,
// which the cost model ranks first on wrn WCC, SSSP and K-hop.
func TestPlannerChoosesOnlyWhatRuns(t *testing.T) {
	r := NewRunner(2_000_000, 1)
	defer r.Close()
	for _, name := range datasets.AllNames() {
		for _, kind := range engine.ExtendedKinds() {
			for m := 1; m <= 4096; m *= 2 {
				d, err := r.TryDecide(name, kind, m)
				if err != nil {
					t.Fatal(err)
				}
				s, err := SystemByKey(d.System)
				if err != nil {
					t.Fatalf("%s %s @ %d: %v", name, kind, m, err)
				}
				if !s.Runs(kind) || !s.RunsOn(m) {
					t.Errorf("%s %s @ %d machines: planner chose %s, which does not run there", name, kind, m, s.Key)
				}
				for _, c := range d.Candidates {
					if cs, _ := SystemByKey(c.System); !cs.RunsOn(m) {
						t.Errorf("%s %s @ %d machines: %s ranked though it cannot run", name, kind, m, c.System)
					}
				}
			}
		}
	}
}
