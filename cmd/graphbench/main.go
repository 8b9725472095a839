// Command graphbench regenerates the paper's tables and figures, runs
// individual experiments, or executes the full grid and writes a run
// log for cmd/logviz.
//
// Usage:
//
//	graphbench -artifact table9                # one artifact
//	graphbench -artifact all                   # everything
//	graphbench -run giraph -dataset twitter -workload pagerank -machines 32
//	graphbench -grid -log runs.jsonl           # full grid to a log file
//	graphbench -grid -parallel 1               # sequential (debug/baseline)
//	graphbench -grid -snapshot-dir .cache      # reuse binary CSR fixtures
//
// With -snapshot-dir (or $GRAPHBENCH_SNAPSHOT_DIR) the dataset
// fixtures are persisted as binary CSR snapshots (internal/snapshot)
// keyed by (name, scale, seed, format version): the first run
// generates and saves, later runs load zero-copy instead of
// regenerating. Results and modeled costs are bit-identical either
// way.
//
// Concurrency: every run owns a private simulated cluster, so the
// experiment matrix executes runs concurrently on a pool sized by
// -parallel (default GOMAXPROCS; 1 forces sequential). Inside each
// run the engines shard their vertex loops over -shards worker
// goroutines (default: GOMAXPROCS for a single -run, GOMAXPROCS
// divided across the concurrent runs inside a matrix, so the two
// layers compose to ~GOMAXPROCS goroutines). Both knobs change wall
// time only: shard accumulators merge in shard order, so outputs and
// modeled metrics are bit-identical at any setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/harness"
	"graphbench/internal/metrics"
	"graphbench/internal/plan"
	"graphbench/internal/sim"
)

func main() {
	var (
		artifact = flag.String("artifact", "", "table1..table10, fig1..fig13, or 'all'")
		scale    = flag.Float64("scale", datasets.DefaultScale, "dataset reduction factor")
		seed     = flag.Int64("seed", 1, "generation seed")
		runSys   = flag.String("run", "", "system key to run (see -list)")
		planMode = flag.String("plan", "",
			"'auto' lets the adaptive planner pick the system and run\n"+
				"configuration for -run cells (ignore -run's system key) and\n"+
				"prints the decision trace")
		dataset  = flag.String("dataset", "twitter", "dataset: twitter, wrn, uk200705, clueweb")
		workload = flag.String("workload", "pagerank", "workload: pagerank, wcc, sssp, khop, triangle, lpa")
		machines = flag.Int("machines", 16, "cluster size")
		grid     = flag.Bool("grid", false, "run the full main grid")
		logPath  = flag.String("log", "", "write run records (JSON lines) to this file")
		list     = flag.Bool("list", false, "list system keys")
		parallel = flag.Int("parallel", 0, "concurrent experiment runs (0 = GOMAXPROCS, 1 = sequential)")
		shards   = flag.Int("shards", 0, "vertex shards per engine run (0 = GOMAXPROCS, 1 = sequential)")
		snapDir  = flag.String("snapshot-dir", "",
			"cache dataset fixtures as binary CSR snapshots in this directory\n"+
				"(keyed by name/scale/seed/format version; later runs load instead of\n"+
				"regenerating; default $GRAPHBENCH_SNAPSHOT_DIR)")
		memBudget = flag.String("mem-budget", "",
			"host memory budget per process, e.g. 512m or 2g (0/empty = unbounded);\n"+
				"runs shed scratch and spill to disk under pressure instead of growing\n"+
				"past it; default $GRAPHBENCH_MEM_BUDGET")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(core.SortedKeys(), "\n"))
		return
	}

	r := core.NewRunner(*scale, *seed)
	r.Workers = *parallel
	r.Shards = *shards
	if *snapDir != "" {
		r.SnapshotDir = *snapDir
	}
	if *memBudget != "" {
		b, err := govern.ParseBytes(*memBudget)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphbench:", err)
			os.Exit(2)
		}
		r.MemoryBudget = b
	}
	defer r.Close()
	switch {
	case *artifact != "":
		printArtifacts(r, *artifact, *scale, *seed)
	case *planMode != "":
		if *planMode != "auto" {
			fmt.Fprintf(os.Stderr, "graphbench: -plan must be 'auto', got %q\n", *planMode)
			os.Exit(2)
		}
		runAuto(r, *dataset, *workload, *machines, *logPath)
	case *runSys != "":
		runOne(r, *runSys, *dataset, *workload, *machines, *logPath)
	case *grid:
		runGrid(r, *logPath)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printArtifacts(r *core.Runner, which string, scale float64, seed int64) {
	artifacts := map[string]func() string{
		"table1":  harness.Table1Systems,
		"table2":  harness.Table2Dimensions,
		"table3":  func() string { return harness.Table3Datasets(scale, seed) },
		"table4":  func() string { return harness.Table4Replication(scale, seed) },
		"table5":  func() string { return harness.Table5Partitions(r) },
		"table6":  func() string { return harness.Table6IterTime(r) },
		"table7":  func() string { return harness.Table7ClueWeb(r) },
		"table8":  func() string { return harness.Table8GiraphMemory(r) },
		"table9":  func() string { return harness.Table9COST(r) },
		"table10": func() string { return harness.Table10WorkloadScaling(r) },
		"fig1":    func() string { return harness.Figure1Cores(r) },
		"fig2":    func() string { return harness.Figure2PartitionSweep(r) },
		"fig3":    func() string { return harness.Figure3BlogelNoHDFS(r) },
		"fig4":    func() string { return harness.Figure4ApproxPR(r) },
		"fig5":    func() string { return harness.Figure5Twitter(r) },
		"fig6":    func() string { return harness.Figure6PageRank(r) },
		"fig7":    func() string { return harness.Figure7KHop(r) },
		"fig8":    func() string { return harness.Figure8SSSP(r) },
		"fig9":    func() string { return harness.Figure9WCC(r) },
		"fig10":   func() string { return harness.Figure10AsyncMemory(r) },
		"fig11":   func() string { return harness.Figure11Imbalance(seed) },
		"fig12":   func() string { return harness.Figure12Vertica(r) },
		"fig13":   func() string { return harness.Figure13VerticaResources(r) },
		"planner": func() string { return harness.PlannerGrid(r) },
	}
	if which == "all" {
		order := []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7",
			"table8", "table9", "table10", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "planner"}
		for _, k := range order {
			fmt.Println(artifacts[k]())
		}
		return
	}
	fn, ok := artifacts[which]
	if !ok {
		fmt.Fprintf(os.Stderr, "graphbench: unknown artifact %q\n", which)
		os.Exit(2)
	}
	fmt.Println(fn())
}

func parseKind(s string) (engine.Kind, error) {
	for _, k := range engine.ExtendedKinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q", s)
}

func runOne(r *core.Runner, sysKey, dataset, workload string, machines int, logPath string) {
	sys, err := core.SystemByKey(sysKey)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(2)
	}
	kind, err := parseKind(workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(2)
	}
	if !sys.Runs(kind) {
		fmt.Fprintf(os.Stderr, "graphbench: system %q is a PageRank-only variant and cannot run %s\n", sysKey, kind)
		os.Exit(2)
	}
	if !sys.RunsOn(machines) {
		fmt.Fprintf(os.Stderr, "graphbench: system %q runs on at most %d machines, got %d\n", sysKey, sys.MaxMachines, machines)
		os.Exit(2)
	}
	res := r.Run(sys, datasets.Name(dataset), kind, machines)
	printResult(sys.Label, res, workload, dataset, machines)
	writeLog(logPath, []*engine.Result{res})
}

// printResult prints a run's status line and, for a finished run, its
// phase times and resources, or else what killed it.
func printResult(system string, res *engine.Result, workload, dataset string, machines int) {
	fmt.Printf("%s %s on %s, %d machines: %s\n", system, workload, dataset, machines, res.Status)
	if res.Status == sim.OK {
		fmt.Printf("  load %s  execute %s  save %s  overhead %s  total %s\n",
			metrics.FmtSeconds(res.Load), metrics.FmtSeconds(res.Exec),
			metrics.FmtSeconds(res.Save), metrics.FmtSeconds(res.Overhead),
			metrics.FmtSeconds(res.TotalTime()))
		fmt.Printf("  iterations %d  network %s  memory total %s (max/machine %s)\n",
			res.Iterations, metrics.FmtBytes(res.NetBytes),
			metrics.FmtBytes(res.MemTotal), metrics.FmtBytes(res.MemMax))
	} else if res.Err != nil {
		fmt.Printf("  %v\n", res.Err)
	}
}

// runAuto is the -plan auto entry point: ask the adaptive planner for
// the cell's configuration, print the full decision trace, execute the
// decision, and print the realized outcome next to the prediction.
func runAuto(r *core.Runner, dataset, workload string, machines int, logPath string) {
	kind, err := parseKind(workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(2)
	}
	res, dec, err := r.TryRunAuto(nil, core.FaultOpts{}, datasets.Name(dataset), kind, machines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(2)
	}
	fmt.Print(dec.Trace())
	rsc := metrics.ResourceOf(res)
	fmt.Printf("  realized: status=%s time=%.1fs mem=%s net=%s score=%.1f\n",
		rsc.Status, rsc.TimeSec, metrics.FmtBytes(rsc.MemTotalBytes), metrics.FmtBytes(rsc.NetBytes), plan.ResourceScore(rsc))
	printResult(res.System, res, workload, dataset, machines)
	writeLog(logPath, []*engine.Result{res})
}

func runGrid(r *core.Runner, logPath string) {
	var cells []core.Cell
	for _, name := range []datasets.Name{datasets.Twitter, datasets.UK, datasets.WRN} {
		for _, kind := range engine.ExtendedKinds() {
			systems := core.MainGridSystems()
			if kind == engine.PageRank {
				systems = core.Systems()
			}
			for _, m := range core.ClusterSizes {
				for _, s := range systems {
					cells = append(cells, core.Cell{System: s, Dataset: name, Kind: kind, Machines: m})
				}
			}
		}
	}
	results := r.RunGrid(cells)
	okCount := 0
	for _, res := range results {
		if res.Status == sim.OK {
			okCount++
		}
	}
	fmt.Printf("grid complete: %d runs, %d finished, %d failed\n", len(results), okCount, len(results)-okCount)
	writeLog(logPath, results)
}

func writeLog(path string, results []*engine.Result) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(1)
	}
	defer f.Close()
	var recs []metrics.Record
	for _, res := range results {
		recs = append(recs, metrics.FromResult(res))
	}
	if err := metrics.WriteLog(f, recs); err != nil {
		fmt.Fprintln(os.Stderr, "graphbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d run records to %s\n", len(recs), path)
}
