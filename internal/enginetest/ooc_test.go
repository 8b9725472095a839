package enginetest

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/pregel"
)

// oocBudget returns a budget small enough that the workload's lean
// in-core residency on the scale-up UK fixture overflows it while the
// out-of-core working set still fits. The residency follows the message
// plane, not the cluster — about 42 B per raw message, 8 MB for
// PageRank, SSSP and K-hop, whose out-of-core peak is 4–5 MB. WCC
// mirrors every edge through the in-neighbor CSR, which both inflates
// its lean residency (~14 MB) and widens its out-of-core windows; LPA
// sends along the symmetrized simple view. Triangle counting is the
// exception by design: its forward-orientation graph halves the edge
// count, so it runs in-core under soft pressure — which is itself worth
// pinning down: the governor must pick the cheapest mode that fits, not
// spill unconditionally.
func oocBudget(k engine.Kind) int64 {
	switch k {
	case engine.WCC:
		return 11 << 20
	case engine.Triangle, engine.LPA:
		return 9 << 20
	}
	return 6 << 20
}

// TestOutOfCoreBitIdentity is the acceptance test for the memory
// governor: a run under a budget that forces out-of-core execution must
// produce outputs, iteration stats, and modeled costs bit-identical to
// the unbounded in-core run at every shard count, while its tracked peak
// stays within the budget and the message plane demonstrably spills.
func TestOutOfCoreBitIdentity(t *testing.T) {
	f := Prepare(t, datasets.UK, datasets.ScaleUpScale)
	workloads := []engine.Workload{
		engine.NewPageRank(),
		engine.NewWCC(),
		engine.NewSSSP(f.Dataset.Source),
		engine.NewKHop(f.Dataset.Source),
		engine.NewTriangleCount(),
		engine.NewLPA(),
	}
	// 64 machines keeps every workload under the simulated cluster's
	// modeled memory capacity at this scale (the host-side governor is
	// a separate ledger and must not change any modeled number).
	const machines = 64

	for _, shards := range []int{1, 8} {
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/shards=%d", w.Kind, shards), func(t *testing.T) {
				t0 := time.Now()
				plain := RunOK(t, pregel.New(), f, machines, w, engine.Options{Shards: shards})
				inCore := time.Since(t0)
				if plain.Govern != (govern.RunStats{}) {
					t.Fatalf("ungoverned run has governor stats: %+v", plain.Govern)
				}

				budget := oocBudget(w.Kind)
				gov, err := govern.New(budget, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defer gov.Close()
				t0 = time.Now()
				got := RunOK(t, pregel.New(), f, machines, w,
					engine.Options{Shards: shards, Governor: gov})
				bounded := time.Since(t0)

				requireSameComputation(t, "governed vs in-core", plain, got)
				if !reflect.DeepEqual(got.PerIteration, plain.PerIteration) {
					t.Fatal("governed PerIteration differs from in-core")
				}
				// The governor is invisible to the cost model: modeled
				// time, traffic, memory, and CPU are bit-identical.
				if got.TotalTime() != plain.TotalTime() ||
					got.Load != plain.Load || got.Exec != plain.Exec ||
					got.Save != plain.Save || got.Overhead != plain.Overhead {
					t.Fatalf("modeled time differs: governed %v, in-core %v",
						got.TotalTime(), plain.TotalTime())
				}
				if got.NetBytes != plain.NetBytes || got.MemTotal != plain.MemTotal ||
					got.MemMax != plain.MemMax {
					t.Fatalf("modeled resources differ: governed (%d,%d,%d), in-core (%d,%d,%d)",
						got.NetBytes, got.MemTotal, got.MemMax,
						plain.NetBytes, plain.MemTotal, plain.MemMax)
				}
				if got.CPUUser != plain.CPUUser || got.CPUIO != plain.CPUIO ||
					got.CPUNet != plain.CPUNet || got.CPUIdle != plain.CPUIdle {
					t.Fatal("modeled CPU decomposition differs under the governor")
				}

				// Ledger invariants: accounted, bounded, and — for the
				// workloads whose plane overflows the budget — spilled.
				gs := got.Govern
				if gs.BudgetBytes != budget {
					t.Fatalf("Govern.BudgetBytes = %d, want %d", gs.BudgetBytes, budget)
				}
				if gs.PeakBytes <= 0 || gs.PeakBytes > budget {
					t.Fatalf("tracked peak %d outside (0, %d]", gs.PeakBytes, budget)
				}
				if w.Kind == engine.Triangle {
					if gs.Spilled {
						t.Fatalf("triangle run spilled (%+v); its halved plane fits in-core", gs)
					}
					if gs.SoftEvents == 0 {
						t.Fatalf("triangle run saw no soft pressure: %+v", gs)
					}
				} else {
					if !gs.Spilled || gs.HardEvents == 0 {
						t.Fatalf("run did not go out-of-core: %+v", gs)
					}
					if gs.SpillBytes == 0 {
						t.Fatalf("out-of-core run spilled no bytes: %+v", gs)
					}
				}

				// All leases are closed: the spill root holds no leftover
				// run directories or segment files.
				ents, err := os.ReadDir(gov.Root())
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Fatalf("spill root not empty after run: %d entries", len(ents))
				}
				t.Logf("in-core %v, bounded %v (%.2fx), spilled %d bytes, peak %d/%d",
					inCore, bounded, float64(bounded)/float64(inCore),
					gs.SpillBytes, gs.PeakBytes, budget)
			})
		}
	}
}
