package harness

import (
	"fmt"
	"sort"
	"strings"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/metrics"
	"graphbench/internal/plan"
)

// plannerDatasets are the fixtures the planner artifact compares on:
// the power-law fixture and the uniform (road) fixture.
var plannerDatasets = []datasets.Name{datasets.Twitter, datasets.WRN}

// PlannerGrid renders the adaptive-planner acceptance artifact: the
// planner's total composite resource cost over the full workload grid
// (twitter + wrn × every workload × every cluster size) against every
// fixed system configuration, followed by the decision trace of every
// cell. Every number is a realized run — the fixed baselines execute
// the whole grid, and the planner's per-cell cost is the realized cost
// of its chosen system on that cell (shard count, shard plan,
// direction, and memory tier never change modeled cost, so one run
// covers every fixed shard variant of a system).
func PlannerGrid(r *core.Runner) string {
	kinds := engine.ExtendedKinds()
	fixed := core.MainGridSystems()

	// Assemble the run grid: the nine full-coverage systems on every
	// cell, plus the PageRank-only variants on the PageRank cells (the
	// planner may pick them there, as the paper's Figure 6 does).
	var cells []core.Cell
	for _, name := range plannerDatasets {
		for _, k := range kinds {
			systems := fixed
			if k == engine.PageRank {
				systems = core.Systems()
			}
			for _, m := range core.ClusterSizes {
				for _, s := range systems {
					cells = append(cells, core.Cell{System: s, Dataset: name, Kind: k, Machines: m})
				}
			}
		}
	}
	results := r.RunGrid(cells)
	byCell := make(map[string]metrics.Resource, len(results))
	for i, res := range results {
		c := cells[i]
		key := fmt.Sprintf("%s|%s|%s|%d", c.System.Key, c.Dataset, c.Kind, c.Machines)
		byCell[key] = metrics.ResourceOf(res)
	}

	// Decide every cell (decisions are pure functions of the profiles).
	var decisions []*plan.Decision
	for _, name := range plannerDatasets {
		for _, k := range kinds {
			for _, m := range core.ClusterSizes {
				d, err := r.TryDecide(name, k, m)
				if err != nil {
					panic(err.Error())
				}
				decisions = append(decisions, d)
			}
		}
	}
	plannerTotal, plannerFails := 0.0, 0
	var traces strings.Builder
	for _, d := range decisions {
		key := fmt.Sprintf("%s|%s|%s|%d", d.System, d.Request.Dataset, d.Request.Workload, d.Machines)
		rsc, ok := byCell[key]
		if !ok {
			panic("harness: planner chose a system outside the run grid: " + key)
		}
		score := plan.ResourceScore(rsc)
		plannerTotal += score
		if !rsc.OK() {
			plannerFails++
		}
		traces.WriteString(d.Trace())
		fmt.Fprintf(&traces, "  realized: status=%s time=%.1fs mem=%s net=%s score=%.1f\n",
			rsc.Status, rsc.TimeSec, metrics.FmtBytes(rsc.MemTotalBytes), metrics.FmtBytes(rsc.NetBytes), score)
	}

	// Fixed-configuration totals over the same cells.
	type fixedRow struct {
		label string
		total float64
		fails int
	}
	var rows []fixedRow
	for _, s := range fixed {
		row := fixedRow{label: s.Label}
		for _, name := range plannerDatasets {
			for _, k := range kinds {
				for _, m := range core.ClusterSizes {
					rsc := byCell[fmt.Sprintf("%s|%s|%s|%d", s.Key, name, k, m)]
					row.total += plan.ResourceScore(rsc)
					if !rsc.OK() {
						row.fails++
					}
				}
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total < rows[j].total })

	beats := plannerTotal < rows[0].total
	out := [][]string{{
		"planner (adaptive)", fmt.Sprintf("%d", plannerFails),
		fmt.Sprintf("%.0f", plannerTotal), "--",
	}}
	for _, row := range rows {
		out = append(out, []string{
			"fixed " + row.label, fmt.Sprintf("%d", row.fails),
			fmt.Sprintf("%.0f", row.total),
			fmt.Sprintf("%+.0f", row.total-plannerTotal),
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Planner grid: adaptive vs fixed configurations (%d cells: twitter+wrn x %d workloads x %v machines)\n",
		len(decisions), len(kinds), core.ClusterSizes)
	b.WriteString("Composite cost per cell: time + 0.05*memGB + 0.05*netGB + 0.01*machines*time; failures cost 86400s.\n")
	b.WriteString("Modeled cost is shard-invariant, so each fixed row covers every shard count of that system.\n")
	b.WriteString(table([]string{"Config", "Fails", "Total cost (s)", "vs planner"}, out))
	fmt.Fprintf(&b, "planner beats every fixed configuration: %v\n", beats)
	b.WriteString("\nDecision traces:\n")
	b.WriteString(traces.String())
	return b.String()
}
