// Command hostbench is this repository's host benchmark: five named
// workloads driven from one seed, end-to-end metrics from an untraced
// window, per-layer metrics from a separate traced run, and a
// correctness check on every operation.
//
//	hostbench -workload serve-hot -seed 1 -seconds 22 -trace 0
//
// runs one workload and prints its metrics, the last line being one
// JSON object {correct, attempted, failed, metrics} (the contract
// BENCHMARK.json describes). Without -workload it runs every workload,
// each in its own child process, one after another, and writes a result
// file with host metadata. See ../README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"graphbench/internal/datasets"
)

// Default sizes. quick trades fidelity for a run that fits a unit test.
const (
	defaultScale   = 2000
	quickScale     = 20000
	defaultSeconds = 22
	quickSeconds   = 1
)

// graphSeed generates every fixture. -seed does not reach dataset
// generation: another graph is another amount of work (WCC supersteps,
// component sizes and traversal depths all differ — measured: a 24 %
// spread of latency_p50_ms on bsp-cost across graph seeds against 4 %
// across runs on one graph), so runs on different graphs cannot be held
// against one bound, and the spill budget and the tail percentiles are
// sized on these graphs.
const graphSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of request sequences and parameters and of which cell or leg opens a pass")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the measured window (default 22, 1 with -quick)")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "scale 20000, 1 s windows, 1 pass, 1 set-up: a smoke run")
	flag.IntVar(&o.repeat, "repeat", 1, "run the whole suite N times and report each metric's spread against its bound")
	flag.StringVar(&o.out, "out", "benchmarks/out", "directory for result files, traces and temporary files")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "hostbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.seconds <= 0 {
		o.seconds = defaultSeconds
		if o.quick {
			o.seconds = quickSeconds
		}
	}
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run dispatches on the mode and returns the exit code. Temporary
// files live under one directory that is removed on every way out,
// failures and signals included.
func run(o options) (int, error) {
	if o.workload == "" {
		return runSuite(o)
	}
	def, ok := workloadByName(o.workload)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	// The program under test must see the generated inputs only.
	os.Unsetenv("GRAPHBENCH_SNAPSHOT_DIR")
	os.Unsetenv("GRAPHBENCH_MEM_BUDGET")

	out, err := filepath.Abs(o.out) // TMPDIR must not depend on the working directory
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 1, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(tmp)
	// Spill roots and anything else the program puts in the system's
	// temporary directory land inside tmp.
	os.Setenv("TMPDIR", tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	e := &env{
		seed: o.seed, scale: defaultScale, seconds: o.seconds,
		procs: runtime.NumCPU(), setupReps: 5, minPasses: 3, tmp: tmp,
	}
	if o.quick {
		e.scale, e.setupReps, e.minPasses = quickScale, 1, 1
	}
	e.ref = newHostRef(datasets.Generate(datasets.Twitter, datasets.Options{Scale: e.scale, Seed: graphSeed}), e.procs)

	var rep report
	if o.trace != 0 {
		rep, err = runTraced(e, def, o.out)
	} else {
		rep, err = runMeasured(e, def)
	}
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1, errors.New("incorrect output")
	}
	return 0, nil
}

// runMeasured is the untraced run: repeated set-up, one window, the
// end-to-end metrics.
func runMeasured(e *env, def workloadDef) (report, error) {
	w := def.new(e)
	defer w.tearDown()
	setups, setupRef, err := setUpRepeated(e, w)
	if err != nil {
		return report{}, err
	}
	if err := w.prepare(); err != nil {
		return report{}, fmt.Errorf("preparing checks: %w", err)
	}
	win := runWindow(e, w, e.seconds, nil)
	win.setups, win.setupRef = setups, setupRef
	verify(w, win.m)

	m := win.m
	metrics := endToEnd(def, win)
	m.info = append(m.info,
		infoLine{"cpu_ms_per_op", cpuMSPerOp(win), "ms"},
		infoLine{"host_slowdown", hostSlowdown(m.ref), "x"},
		infoLine{"host_slowdown.setup", hostSlowdown(setupRef), "x"})
	fmt.Printf("# %s seed=%d scale=%g window=%.2fs timed=%dx%s tail=%s\n",
		def.name, e.seed, e.scale, win.elapsed, len(m.lat), def.unit, tailLabel(def))
	printMetrics(def.name, metrics, endToEndNames())
	printTiming(def.name, "latency("+def.unit+")", m.lat)
	for _, name := range m.legOrder {
		printTiming(def.name, name, m.legs[name])
	}
	for _, in := range m.info {
		fmt.Printf("%-10s %-34s %14.4f %-6s\n", def.name, in.name, in.value, in.unit)
	}
	return finish(win.all(), metrics), nil
}

// finish turns a meter and its metrics into the result line.
func finish(m *meter, metrics map[string]metric) report {
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %d of %d operations failed; first: %v\n", m.failed, m.done, m.firstErr)
	}
	attempted := m.done
	if attempted < 1 {
		attempted = 1
	}
	return report{Correct: m.failed == 0 && m.done > 0, Attempted: attempted, Failed: m.failed, Metrics: metrics}
}
