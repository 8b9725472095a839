package relational

import (
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/enginetest"
	"graphbench/internal/gas"
	"graphbench/internal/sim"
)

func TestAllWorkloadsCorrect(t *testing.T) {
	f := enginetest.Prepare(t, datasets.Twitter, 400_000)
	enginetest.VerifyAllWorkloads(t, New(), f, 16, 1e-9, engine.Options{})
}

func TestSmallMemoryLargeIO(t *testing.T) {
	// Figure 13: Vertica's footprint is small, but I/O wait and
	// network dominate versus a native graph system.
	f := enginetest.Prepare(t, datasets.UK, 1_000_000)
	w := engine.NewPageRankIters(20)
	v := enginetest.RunOK(t, New(), f, 64, w, engine.Options{})
	gl := enginetest.RunOK(t, gas.New(), f, 64, w, engine.Options{})
	if v.MemMax >= gl.MemMax {
		t.Errorf("Vertica memory %d not below GraphLab %d", v.MemMax, gl.MemMax)
	}
	if v.CPUIO <= gl.CPUIO {
		t.Errorf("Vertica I/O wait %v not above GraphLab %v", v.CPUIO, gl.CPUIO)
	}
	if v.NetBytes <= gl.NetBytes {
		t.Errorf("Vertica network %d not above GraphLab %d", v.NetBytes, gl.NetBytes)
	}
}

func TestGapGrowsWithClusterSize(t *testing.T) {
	// §5.11: "As the cluster size increases, so does the gap between
	// its performance and other systems."
	f := enginetest.Prepare(t, datasets.UK, 1_000_000)
	w := engine.NewPageRankIters(20)
	ratio := func(m int) float64 {
		// GraphLab needs auto partitioning to load UK below 32
		// machines (§5.2), so compare at 32 and 128.
		v := enginetest.RunOK(t, New(), f, m, w, engine.Options{})
		gl := enginetest.RunOK(t, gas.New(), f, m, w, engine.Options{Partitioning: "auto"})
		return v.Exec / gl.Exec
	}
	small, large := ratio(32), ratio(128)
	if large <= small {
		t.Errorf("Vertica/GraphLab exec ratio at 128 (%v) not above 32 (%v)", large, small)
	}
	if small < 1 {
		t.Errorf("Vertica (%v) should already be slower at 32 machines", small)
	}
}

func TestNoOOMEver(t *testing.T) {
	// Disk-resident tables: even ClueWeb-scale joins spill, not crash.
	f := enginetest.Prepare(t, datasets.ClueWeb, 10_000_000)
	res := New().Run(sim.NewSize(16), f.Dataset, engine.NewKHop(f.Dataset.Source), engine.Options{})
	if res.Status != sim.OK {
		t.Fatalf("Vertica ClueWeb K-hop at 16: %v", res.Status)
	}
}

// TestTimeoutMidTraversalStopsTheRun: a traversal whose iteration trips
// the clock ends there, as the PageRank and LPA chains do — it must not
// go on to charge a save step and be reported TO only because that step
// trips the same clock.
func TestTimeoutMidTraversalStopsTheRun(t *testing.T) {
	f := enginetest.Prepare(t, datasets.Twitter, 400_000)
	for _, w := range []engine.Workload{engine.NewSSSP(f.Dataset.Source), engine.NewWCC(), engine.NewPageRank()} {
		full := enginetest.RunOK(t, New(), f, 16, w, engine.Options{})
		cfg := sim.NewConfig(16)
		cfg.Timeout = full.Load + full.Exec/2
		res := New().Run(sim.New(cfg), f.Dataset, w, engine.Options{})
		if res.Status != sim.TO || res.Save != 0 {
			t.Errorf("%s: status %v, save %v s; want TO with no save step", w.Kind, res.Status, res.Save)
		}
		if res.Iterations == 0 || res.Iterations >= full.Iterations {
			t.Errorf("%s: %d iterations reported, full run took %d", w.Kind, res.Iterations, full.Iterations)
		}
		if res.Dist == nil && res.Labels == nil && res.Ranks == nil {
			t.Errorf("%s: timed-out run carries no partial output", w.Kind)
		}
	}
}
