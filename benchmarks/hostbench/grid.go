package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/graphx"
	"graphbench/internal/sim"
)

const gridMachines = 16

// newRunner returns a runner that always generates its fixtures cold
// and runs ungoverned, whatever the environment says.
func newRunner(e *env) *core.Runner {
	r := core.NewRunner(e.scale, graphSeed)
	r.SnapshotDir = ""
	r.MemoryBudget = 0
	return r
}

// rotate turns xs to start at the element seed picks. Which cell or leg
// opens a pass is the seeded input of the batch workloads; the cyclic
// order itself stays fixed, because which runs are neighbours decides
// heap and page-cache state and with it the time (measured: a seeded
// shuffle put a 15 % spread on bsp-cost and ooc-spill passes that
// repeat within 4 % in any one order).
func rotate[T any](seed int64, xs []T) {
	k := int(rand.New(rand.NewSource(seed)).Intn(len(xs)))
	turned := append(append([]T(nil), xs[k:]...), xs[:k]...)
	copy(xs, turned)
}

// oracleFor regenerates the named dataset (generation is deterministic
// in name, scale and seed, so this is the graph the runner prepared)
// and computes its single-thread truths.
func oracleFor(e *env, name datasets.Name) *oracle {
	g := datasets.Generate(name, datasets.Options{Scale: e.scale, Seed: graphSeed})
	return newOracle(g, datasets.SourceVertex(g, 42))
}

// directRun executes one cell on the engine itself, with the options
// core.Runner would assemble for it — the layer below core.run. The
// system brings the modeled knobs; host carries the ones that only
// change wall time (shards, pool, direction, shard plan, governor, tier).
func directRun(s core.System, d *engine.Dataset, w engine.Workload, machines int, host engine.Options) *engine.Result {
	if s.Tweak != nil {
		w = s.Tweak(w)
	}
	o := s.Opt
	o.Shards, o.Pool, o.Direction = host.Shards, host.Pool, host.Direction
	o.ShardPlan, o.Governor, o.MemoryTier = host.ShardPlan, host.Governor, host.MemoryTier
	if s.Key == "graphx" && o.NumPartitions == 0 {
		o.NumPartitions = graphx.TunedPartitions(d, machines)
	}
	return s.New().Run(sim.NewSize(machines), d, w, o)
}

// engineLayer names the package that implements a system, the layer
// its direct run is attributed to.
func engineLayer(sysKey string) string {
	switch {
	case sysKey == "giraph":
		return "pregel"
	case sysKey == "blogel-v":
		return "blogel.v"
	case sysKey == "blogel-b":
		return "blogel.b"
	case sysKey == "gelly":
		return "dataflow"
	case sysKey == "hadoop":
		return "mapreduce"
	case sysKey == "vertica":
		return "relational"
	case strings.HasPrefix(sysKey, "gl-"):
		return "gas"
	default:
		return sysKey // graphx, haloop
	}
}

// gridSystems are the systems of the paper's main grid plus Vertica.
func gridSystems() []core.System { return append(core.MainGridSystems(), core.Vertica()) }

// gridWorkload regenerates the twitter slice of the paper's grid:
// {pagerank, wcc, sssp, khop} × ten systems at 16 machines, 40 cells a
// pass through core.Runner.RunGrid with default Workers and Shards, as
// `graphbench -grid` runs it — one RunGrid call per workload kind, so a
// pass is timed in four legs of ten cells and a burst of interference
// costs one leg a sample, not the pass.
type gridWorkload struct {
	e      *env
	runner *core.Runner
	shadow *core.Runner  // traced runs replay cells here, one layer down
	legs   [][]core.Cell // one per workload kind
	cells  []core.Cell   // the legs end to end
	or     *oracle
	first  []*engine.Result // pass 0, which every later pass must equal
}

func newGrid(e *env) workload {
	w := &gridWorkload{e: e}
	for _, k := range engine.AllKinds() {
		var leg []core.Cell
		for _, s := range gridSystems() {
			leg = append(leg, core.Cell{System: s, Dataset: datasets.Twitter, Kind: k, Machines: gridMachines})
		}
		w.legs = append(w.legs, leg)
	}
	// The seed says which leg opens a pass. Within a leg the order is
	// fixed: it decides how ten cells pack onto the pool's workers, and
	// with that the leg's time, by several percent.
	rotate(e.seed, w.legs)
	for _, leg := range w.legs {
		w.cells = append(w.cells, leg...)
	}
	return w
}

func (w *gridWorkload) setUp() error {
	w.runner = newRunner(w.e)
	_, err := w.runner.TryDataset(datasets.Twitter)
	return err
}

func (w *gridWorkload) tearDown() {
	if w.runner != nil {
		w.runner.Close()
		w.runner = nil
	}
	if w.shadow != nil {
		w.shadow.Close()
		w.shadow = nil
	}
}

func (w *gridWorkload) prepare() error {
	w.or = oracleFor(w.e, datasets.Twitter)
	return nil
}

func (w *gridWorkload) measure(m *meter) {
	for pass := 0; m.more(pass); pass++ {
		res := make([]*engine.Result, 0, len(w.cells))
		t := time.Now()
		// Op 0: the pass is timed as a span for the overhead comparison,
		// but the operations whose layers are attributed are its cells.
		m.tr.do(0, 0, "grid.pass", func() {
			for _, leg := range w.legs {
				t := time.Now()
				res = append(res, w.runner.RunGrid(leg)...)
				m.leg("grid."+leg[0].Kind.String(), ms(time.Since(t)))
				m.yardstick(w.e.ref, w.e.procs)
			}
		})
		m.lat = append(m.lat, ms(time.Since(t)))
		m.done += len(w.cells)
		for i, r := range res {
			if err := w.checkCell(i, r); err != nil {
				m.fail(fmt.Errorf("pass %d cell %s/%s: %w", pass, w.cells[i].System.Key, w.cells[i].Kind, err))
			}
		}
		if w.first == nil {
			w.first = res
		}
		if m.tr != nil {
			w.replay(m.tr, pass)
		}
	}
}

// checkCell holds cell i's result against the oracle and against the
// first pass.
func (w *gridWorkload) checkCell(i int, r *engine.Result) error {
	if err := w.or.checkResult(w.cells[i].System.Key, r); err != nil {
		return err
	}
	if w.first != nil {
		return sameOutputs(w.first[i], r)
	}
	return nil
}

// replay re-runs a quarter of the cells (a different quarter each pass)
// as traced operations on a shadow runner: core.run around TryRun, and
// under it the engine's own run.
func (w *gridWorkload) replay(tr *tracer, pass int) {
	if w.shadow == nil {
		w.shadow = newRunner(w.e)
		w.shadow.Shards = w.runner.MatrixShards()
		// Generate the fixture now, not inside the first traced cell.
		if _, err := w.shadow.TryDataset(datasets.Twitter); err != nil {
			return
		}
	}
	for i, c := range w.cells {
		if i%4 != pass%4 {
			continue
		}
		// The replay's result was already checked when the pass ran it.
		_, _, _ = runCell(tr, w.shadow, c)
	}
}

// runCell runs one cell through TryRun as an operation and returns the
// result and how long TryRun took. Under a tracer the call is the
// core.run span, and the direct engine run of the same cell is replayed
// as its child (outside the returned duration).
func runCell(tr *tracer, r *core.Runner, c core.Cell) (*engine.Result, time.Duration, error) {
	op := tr.newOp()
	var res *engine.Result
	var err error
	t := time.Now()
	root := tr.do(op, 0, "core.run", func() { res, err = r.TryRun(c.System, c.Dataset, c.Kind, c.Machines) })
	dur := time.Since(t)
	if err != nil || tr == nil {
		return res, dur, err
	}
	d, _ := r.TryDataset(c.Dataset) // cached: TryRun just used both
	wl, _ := r.TryWorkload(c.Kind, c.Dataset)
	host := engine.Options{Shards: r.Shards, Governor: r.Governor()}
	tr.do(op, root, "engine.run."+engineLayer(c.System.Key), func() { directRun(c.System, d, wl, c.Machines, host) })
	return res, dur, nil
}
