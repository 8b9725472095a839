package main

import (
	"errors"
	"fmt"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/sim"
)

// spillBudgetAt2000 is the point where all nine cells spill on the
// scale-2000 twitter fixture: at 16 MiB WCC is rejected as over budget,
// at 32 MiB PageRank stays in core. The working set shrinks with the
// graph, so other scales get the budget in proportion.
const spillBudgetAt2000 = 24 << 20

func spillBudget(e *env) int64 { return int64(spillBudgetAt2000 * defaultScale / e.scale) }

// spillCells are the BSP-family systems on the three iterative
// workloads.
func spillCells() []core.Cell {
	var cells []core.Cell
	for _, key := range []string{"giraph", "blogel-v", "gelly"} {
		s := systemByKey(key)
		for _, k := range []engine.Kind{engine.PageRank, engine.WCC, engine.SSSP} {
			cells = append(cells, core.Cell{System: s, Dataset: datasets.Twitter, Kind: k, Machines: gridMachines})
		}
	}
	return cells
}

// spillWorkload runs the BSP engines out of core: one shard, a memory
// budget below the message plane, spill segments on disk.
type spillWorkload struct {
	e      *env
	runner *core.Runner
	cells  []core.Cell
	or     *oracle
	ref    []*engine.Result // the same cells, ungoverned
}

func newSpill(e *env) workload {
	w := &spillWorkload{e: e, cells: spillCells()}
	rotate(e.seed, w.cells)
	return w
}

func (w *spillWorkload) setUp() error {
	w.runner = newRunner(w.e)
	w.runner.MemoryBudget = spillBudget(w.e)
	w.runner.Shards = 1
	if w.runner.Governor() == nil {
		return errors.New("memory governor could not be created")
	}
	_, err := w.runner.TryDataset(datasets.Twitter)
	return err
}

func (w *spillWorkload) tearDown() {
	if w.runner != nil {
		w.runner.Close() // removes the governor's spill root
		w.runner = nil
	}
}

func (w *spillWorkload) prepare() error {
	w.or = oracleFor(w.e, datasets.Twitter)
	free := newRunner(w.e)
	free.Shards = 1
	defer free.Close()
	for _, c := range w.cells {
		res, err := free.TryRun(c.System, c.Dataset, c.Kind, c.Machines)
		if err != nil {
			return fmt.Errorf("ungoverned reference %s/%s: %w", c.System.Key, c.Kind, err)
		}
		w.ref = append(w.ref, res)
	}
	return nil
}

func (w *spillWorkload) measure(m *meter) {
	var spilled int64
	for pass := 0; m.more(pass); pass++ {
		var runs time.Duration // the runs alone: checks and replays are not the program's time
		for i, c := range w.cells {
			res, d, err := runCell(m.tr, w.runner, c)
			runs += d
			m.leg(c.System.Key+"."+c.Kind.String(), ms(d))
			m.done++
			if err == nil {
				err = w.checkCell(i, res)
			}
			if err != nil {
				m.fail(fmt.Errorf("pass %d cell %s/%s: %w", pass, c.System.Key, c.Kind, err))
				continue
			}
			spilled += res.Govern.SpillBytes
			m.yardstick(w.e.ref, 1) // Shards = 1
		}
		m.lat = append(m.lat, ms(runs))
	}
	m.info = append(m.info, infoLine{"spill_mb_per_pass", float64(spilled) / 1e6 / float64(len(m.lat)), "MB"})
}

// checkCell requires a bounded, spilled, successful run whose outputs
// are bit-equal to the ungoverned run and agree with the oracle.
func (w *spillWorkload) checkCell(i int, res *engine.Result) error {
	switch {
	case res.Status != sim.OK:
		return fmt.Errorf("status %v (%v)", res.Status, res.Err)
	case !res.Govern.Spilled:
		return errors.New("run stayed in core")
	case res.Govern.PeakBytes > spillBudget(w.e):
		return fmt.Errorf("tracked peak %d bytes over the %d budget", res.Govern.PeakBytes, spillBudget(w.e))
	}
	if err := sameOutputs(w.ref[i], res); err != nil {
		return fmt.Errorf("differs from the ungoverned run: %w", err)
	}
	return w.or.checkResult(w.cells[i].System.Key, res)
}
