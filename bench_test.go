package graphbench_test

// One benchmark per table and figure of the paper's evaluation section,
// plus ablations for the design choices the package docs call out. Each
// benchmark regenerates its artifact from fresh simulated runs and
// prints it once, so `go test -bench=. -benchmem` reproduces the whole
// evaluation.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphbench/internal/blogel"
	"graphbench/internal/bsp"
	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/graphx"
	"graphbench/internal/haloop"
	"graphbench/internal/harness"
	"graphbench/internal/par"
	"graphbench/internal/partition"
	"graphbench/internal/plan"
	"graphbench/internal/pregel"
	"graphbench/internal/sim"
	"graphbench/internal/snapshot"
)

// benchScale keeps full-grid artifacts fast; resource accounting is
// scale-invariant, so results match the default-scale harness.
const benchScale = 400_000

// messagePlaneScale sizes the skewed power-law fixture shared by
// BenchmarkMessagePlane and BenchmarkParallelSpeedup/Sharded: ~20k
// vertices and ~750k edges, large enough that a superstep's working
// set (inbox arena, sender-machine scratch, send buckets) spills the fast
// caches — the regime the message plane exists for.
const messagePlaneScale = 2000

// messagePlaneGraph generates that fixture once per process.
var messagePlaneGraph = sync.OnceValue(func() *graph.Graph {
	return datasets.Generate(datasets.Twitter, datasets.Options{Scale: messagePlaneScale, Seed: 1})
})

var printed sync.Map

// emit prints an artifact once per process, so bench output carries the
// regenerated tables without repeating them per b.N iteration.
func emit(name, out string) {
	if _, done := printed.LoadOrStore(name, true); !done {
		fmt.Printf("\n%s\n", out)
	}
}

func runner() *core.Runner { return core.NewRunner(benchScale, 1) }

func BenchmarkTable1Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("t1", harness.Table1Systems())
	}
}

func BenchmarkTable2Dimensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("t2", harness.Table2Dimensions())
	}
}

func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("t3", harness.Table3Datasets(benchScale, 1))
	}
}

func BenchmarkTable4Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("t4", harness.Table4Replication(benchScale, 1))
	}
}

func BenchmarkTable5Partitions(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("t5", harness.Table5Partitions(r))
	}
}

func BenchmarkTable6IterTime(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("t6", harness.Table6IterTime(r))
	}
}

func BenchmarkTable7ClueWeb(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("t7", harness.Table7ClueWeb(r))
	}
}

func BenchmarkTable8GiraphMemory(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("t8", harness.Table8GiraphMemory(r))
	}
}

func BenchmarkTable9COST(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("t9", harness.Table9COST(r))
	}
}

func BenchmarkTable10WorkloadScaling(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("t10", harness.Table10WorkloadScaling(r))
	}
}

func BenchmarkFigure1Cores(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f1", harness.Figure1Cores(r))
	}
}

func BenchmarkFigure2PartitionSweep(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f2", harness.Figure2PartitionSweep(r))
	}
}

func BenchmarkFigure3BlogelNoHDFS(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f3", harness.Figure3BlogelNoHDFS(r))
	}
}

func BenchmarkFigure4ApproxPR(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f4", harness.Figure4ApproxPR(r))
	}
}

func BenchmarkFigure5Twitter(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f5", harness.Figure5Twitter(r))
	}
}

func BenchmarkFigure6PageRank(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f6", harness.Figure6PageRank(r))
	}
}

func BenchmarkFigure7KHop(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f7", harness.Figure7KHop(r))
	}
}

func BenchmarkFigure8SSSP(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f8", harness.Figure8SSSP(r))
	}
}

func BenchmarkFigure9WCC(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f9", harness.Figure9WCC(r))
	}
}

func BenchmarkFigure10AsyncMemory(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f10", harness.Figure10AsyncMemory(r))
	}
}

func BenchmarkFigure11Imbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit("f11", harness.Figure11Imbalance(1))
	}
}

func BenchmarkFigure12Vertica(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f12", harness.Figure12Vertica(r))
	}
}

func BenchmarkFigure13VerticaResources(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit("f13", harness.Figure13VerticaResources(r))
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationCombiner quantifies Giraph's message combiner.
func BenchmarkAblationCombiner(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.Dataset(datasets.Twitter)
		w := engine.NewPageRankIters(10)
		with := pregel.New().Run(sim.NewSize(16), d, w, engine.Options{})
		without := pregel.New().Run(sim.NewSize(16), d, w, engine.Options{DisableCombiner: true})
		emit("ab1", fmt.Sprintf(
			"Ablation: Giraph combiner (PageRank x10, Twitter, 16 machines)\n"+
				"  with combiner:    exec %.0fs, network %d GB\n"+
				"  without combiner: exec %.0fs, network %d GB\n",
			with.Exec, with.NetBytes>>30, without.Exec, without.NetBytes>>30))
	}
}

// BenchmarkAblationVoronoiSampling sweeps Blogel-B's GVD sampling rate
// on the road network, where block structure matters most.
func BenchmarkAblationVoronoiSampling(b *testing.B) {
	g := datasets.Generate(datasets.WRN, datasets.Options{Scale: benchScale, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := "Ablation: Blogel-B GVD sampling rate (WRN analogue)\n"
		for _, rate := range []float64{0.0005, 0.001, 0.01, 0.05} {
			v := partition.BuildVoronoi(g, 16, 11, partition.VoronoiOptions{InitialRate: rate})
			out += fmt.Sprintf("  rate %.4f: %5d blocks, %6d cross-block edges, %d rounds\n",
				rate, v.NumBlocks, v.CrossBlockEdges(), v.Rounds)
		}
		emit("ab2", out)
	}
}

// BenchmarkAblationLineageCheckpoint sweeps GraphX checkpoint intervals.
func BenchmarkAblationLineageCheckpoint(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.Dataset(datasets.Twitter)
		w := engine.NewPageRankIters(12)
		out := "Ablation: GraphX checkpoint interval (PageRank x12, Twitter, 32 machines)\n"
		for _, every := range []int{0, 2, 5} {
			res := graphx.New().Run(sim.NewSize(32), d, w,
				engine.Options{NumPartitions: 256, CheckpointEvery: every})
			out += fmt.Sprintf("  every %d: exec %.0fs, peak mem/machine %.1f GB (%s)\n",
				every, res.Exec, float64(res.MemMax)/float64(sim.GB), res.Status)
		}
		emit("ab3", out)
	}
}

// BenchmarkAblationHaLoopCache isolates HaLoop's invariant-data cache.
func BenchmarkAblationHaLoopCache(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.Dataset(datasets.Twitter)
		w := engine.NewPageRankIters(10)
		with := haloop.New()
		without := haloop.New()
		without.InvariantCache = false
		rw := with.Run(sim.NewSize(16), d, w, engine.Options{})
		ro := without.Run(sim.NewSize(16), d, w, engine.Options{})
		emit("ab4", fmt.Sprintf(
			"Ablation: HaLoop invariant-data cache (PageRank x10, Twitter, 16 machines)\n"+
				"  cache on:  total %.0fs, disk wait %.0fs\n"+
				"  cache off: total %.0fs, disk wait %.0fs\n",
			rw.TotalTime(), rw.CPUIO, ro.TotalTime(), ro.CPUIO))
	}
}

// BenchmarkAblationBlogelBVsV compares the two Blogel modes end-to-end
// (§5.1's headline finding).
func BenchmarkAblationBlogelBVsV(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.Dataset(datasets.UK)
		w := r.Workload(engine.WCC, datasets.UK)
		bv := blogel.NewV().Run(sim.NewSize(32), d, w, engine.Options{})
		bb := blogel.NewB().Run(sim.NewSize(32), d, w, engine.Options{})
		emit("ab5", fmt.Sprintf(
			"Ablation: Blogel-B vs Blogel-V (WCC, UK, 32 machines)\n"+
				"  BV: exec %.0fs, total %.0fs\n"+
				"  BB: exec %.0fs, total %.0fs  (faster execute, slower end-to-end)\n",
			bv.Exec, bv.TotalTime(), bb.Exec, bb.TotalTime()))
	}
}

// BenchmarkMessagePlane isolates the BSP message plane — the CSR
// superstep inboxes, struct-of-arrays send buckets, and swapped value
// arenas — on the powerlaw (Twitter-analogue) dataset: a dense
// combiner-heavy workload (PageRank) and a sparse frontier-driven one
// (WCC), each at one and at eight shards. Run with -benchmem: allocs/op
// is the number the zero-allocation message plane drives down, and
// scripts/bench.sh records it per-date so the trajectory is tracked
// (use --compare to diff against a previous snapshot).
//
// The fixture runs at messagePlaneScale rather than benchScale: cache
// pressure is the regime where the sharded path's radix-partitioned
// merge (each destination shard touches only its own vertex range)
// pays for its bucket bookkeeping. shards=8 must beat shards=1 here
// even on one core, which the persistent worker runtime's
// zero-dispatch-overhead execution makes hold.
func BenchmarkMessagePlane(b *testing.B) {
	g := messagePlaneGraph()
	const m = 16
	cut := partition.EdgeCut{M: m, Seed: 7}
	base := bsp.Config{
		Graph: g, Scale: 1, M: m, MachineOf: cut.MachineOf, Profile: &blogel.Profile,
	}
	run := func(b *testing.B, cfg bsp.Config) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bsp.Run(sim.NewSize(m), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	// pooled is the steady state of back-to-back runs on one persistent
	// pool — what a graphserve admission slot sees: after a warm-up run
	// the leased message-plane arena has its size and a run allocates its
	// O(V) state only. The bare and /push variants build a pool, and so an
	// arena, per run.
	pooled := func(b *testing.B, cfg bsp.Config) {
		b.Helper()
		pool := par.New(cfg.Shards)
		defer pool.Close()
		cfg.Pool = pool
		if _, err := bsp.Run(sim.NewSize(m), cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		run(b, cfg)
	}
	src := datasets.SourceVertex(g, 42)
	pagerank := func(dir engine.Direction, shards int) bsp.Config {
		cfg := base
		cfg.Program = &bsp.PageRankProgram{Damping: 0.15}
		cfg.Combine = bsp.SumCombine
		cfg.FixedSupersteps = 10
		cfg.Shards = shards
		cfg.Direction = dir
		return cfg
	}
	wcc := func(dir engine.Direction, shards int) bsp.Config {
		cfg := base
		cfg.Program = bsp.WCCProgram{}
		cfg.Combine = bsp.MinCombine
		cfg.CombineFrom = 1
		cfg.UseInNeighbors = true
		cfg.Shards = shards
		cfg.Direction = dir
		return cfg
	}
	sssp := func(dir engine.Direction, shards int) bsp.Config {
		cfg := base
		cfg.Program = &bsp.SSSPProgram{Source: src}
		cfg.Combine = bsp.MinCombine
		cfg.Shards = shards
		cfg.Direction = dir
		return cfg
	}
	for _, shards := range []int{1, 8} {
		// The bare names run the default direction policy (auto), so
		// scripts/bench.sh --compare shows the direction-optimization win
		// against pre-policy snapshots on the same benchmark names. The
		// /push variants pin the flat message plane as the in-snapshot
		// baseline: the delta between the pair is the direction win alone,
		// with outputs and modeled costs bit-identical by contract.
		b.Run(fmt.Sprintf("PageRank/shards=%d", shards), func(b *testing.B) {
			run(b, pagerank(engine.DirectionAuto, shards))
		})
		b.Run(fmt.Sprintf("PageRank/push/shards=%d", shards), func(b *testing.B) {
			run(b, pagerank(engine.DirectionPush, shards))
		})
		b.Run(fmt.Sprintf("PageRank/pooled/shards=%d", shards), func(b *testing.B) {
			pooled(b, pagerank(engine.DirectionAuto, shards))
		})
		b.Run(fmt.Sprintf("WCC/shards=%d", shards), func(b *testing.B) {
			run(b, wcc(engine.DirectionAuto, shards))
		})
		b.Run(fmt.Sprintf("WCC/push/shards=%d", shards), func(b *testing.B) {
			run(b, wcc(engine.DirectionPush, shards))
		})
		b.Run(fmt.Sprintf("WCC/pooled/shards=%d", shards), func(b *testing.B) {
			pooled(b, wcc(engine.DirectionAuto, shards))
		})
		b.Run(fmt.Sprintf("SSSP/shards=%d", shards), func(b *testing.B) {
			run(b, sssp(engine.DirectionAuto, shards))
		})
		b.Run(fmt.Sprintf("SSSP/push/shards=%d", shards), func(b *testing.B) {
			run(b, sssp(engine.DirectionPush, shards))
		})
		b.Run(fmt.Sprintf("SSSP/pooled/shards=%d", shards), func(b *testing.B) {
			pooled(b, sssp(engine.DirectionAuto, shards))
		})
	}
}

// BenchmarkTraversal tracks the direction-optimizing single-thread
// primitives on the message-plane fixture: a full BFSDistances sweep
// with reused Traversal scratch, and the HashMinRounds fixpoint. With
// -benchmem the allocs/op row guards the Frontier double-buffer reuse
// (the BFS steady state must not allocate), and scripts/bench.sh's CI
// leg gates it alongside the message-plane benches.
func BenchmarkTraversal(b *testing.B) {
	g := messagePlaneGraph()
	b.Run("BFSDistances", func(b *testing.B) {
		b.ReportAllocs()
		var tr graph.Traversal
		dist := make([]int32, g.NumVertices())
		src := datasets.SourceVertex(g, 42)
		// One warm-up sweep sizes the Traversal's lazily grown frontier
		// scratch outside the timed region, so allocs/op reads the
		// steady state (0-1) at any -benchtime, including CI's 1x.
		tr.BFSDistances(g, src, dist)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.BFSDistances(g, src, dist)
		}
	})
	b.Run("HashMinRounds", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := graph.HashMinRounds(g); r == 0 {
				b.Fatal("HashMin converged in zero rounds")
			}
		}
	})
}

// BenchmarkDerivedViews tracks what building a fixture's derived views
// costs on the message-plane fixture: the undirected view and the GVD
// block structure a dataset builds once (engine.View), and the self-edge
// strip every GraphLab run still pays. Each is O(V+E) with a fixed
// handful of allocations; with -benchmem the B/op and allocs/op rows
// keep them from growing back into Builder passes.
func BenchmarkDerivedViews(b *testing.B) {
	g := messagePlaneGraph()
	u := g.Undirected()
	b.Run("Undirected", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.Undirected().NumEdges() != u.NumEdges() {
				b.Fatal("undirected views differ")
			}
		}
	})
	b.Run("WithoutSelfEdges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.WithoutSelfEdges().SelfEdges() != 0 {
				b.Fatal("self-edges left")
			}
		}
	})
	b.Run("GVDBlocks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if partition.BuildBlocks(g, u, 11, partition.VoronoiOptions{}).NumBlocks == 0 {
				b.Fatal("no blocks")
			}
		}
	})
}

// BenchmarkParallelSpeedup measures the parallel execution subsystem at
// both of its layers.
//
// Grid runs one Table 9 row (Twitter PageRank, every main-grid system
// at 16 machines) once sequentially (one matrix worker, one shard per
// engine) and once fully parallel (GOMAXPROCS workers and shards).
// Determinism guarantees both produce identical modeled results; the
// benchmark reports the wall-clock ratio so later scaling PRs have a
// perf trajectory to compare against.
//
// Sharded measures the engine-level layer on its own: BSP PageRank on
// the skewed power-law (Twitter-analogue) input of BenchmarkMessagePlane
// at shards=1, 8, and GOMAXPROCS, so the edge-balanced plan's win over
// the heavy-shard serialization is visible per shard count. On a
// single-core machine the sharded runs measure pure runtime overhead
// plus the merge pass's partitioned locality; with more cores they
// measure real speedup — either way shards>1 must not lose to shards=1.
func BenchmarkParallelSpeedup(b *testing.B) {
	b.Run("Grid", func(b *testing.B) {
		var cells []core.Cell
		for _, s := range core.MainGridSystems() {
			cells = append(cells, core.Cell{System: s, Dataset: datasets.Twitter, Kind: engine.PageRank, Machines: 16})
		}
		time16 := func(r *core.Runner) (time.Duration, []*engine.Result) {
			r.Dataset(datasets.Twitter) // fixture generation outside the clock
			start := time.Now()
			res := r.RunGrid(cells)
			return time.Since(start), res
		}
		for i := 0; i < b.N; i++ {
			seq := runner()
			seq.Workers, seq.Shards = 1, 1
			seqDur, seqRes := time16(seq)

			par := runner() // Workers/Shards zero: GOMAXPROCS at both layers
			parDur, parRes := time16(par)

			for j := range cells {
				if seqRes[j].TotalTime() != parRes[j].TotalTime() || seqRes[j].NetBytes != parRes[j].NetBytes {
					b.Fatalf("cell %d: parallel run diverged from sequential (modeled %v/%v vs %v/%v)",
						j, parRes[j].TotalTime(), parRes[j].NetBytes, seqRes[j].TotalTime(), seqRes[j].NetBytes)
				}
			}
			speedup := seqDur.Seconds() / parDur.Seconds()
			b.ReportMetric(speedup, "speedup")
			emit("speedup", fmt.Sprintf(
				"Parallel speedup (Table 9 row: Twitter PageRank, %d systems @ 16 machines)\n"+
					"  sequential %v, parallel %v: %.1fx on %d cores\n",
				len(cells), seqDur.Round(time.Millisecond), parDur.Round(time.Millisecond),
				speedup, runtime.GOMAXPROCS(0)))
		}
	})
	b.Run("Sharded", func(b *testing.B) {
		g := messagePlaneGraph()
		const m = 16
		cut := partition.EdgeCut{M: m, Seed: 7}
		shardCounts := []int{1, 8}
		if p := runtime.GOMAXPROCS(0); p != 1 && p != 8 {
			shardCounts = append(shardCounts, p)
		}
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("PageRank/shards=%d", shards), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := bsp.Run(sim.NewSize(m), bsp.Config{
						Graph: g, Scale: 1, M: m, MachineOf: cut.MachineOf, Profile: &blogel.Profile,
						Program: &bsp.PageRankProgram{Damping: 0.15}, Combine: bsp.SumCombine,
						FixedSupersteps: 10, Shards: shards,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkScalability reports strong-scaling behaviour (§5.12): the
// native BSP systems improve steadily with cluster size; GraphX does
// not scale as well.
func BenchmarkScalability(b *testing.B) {
	r := runner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := "Strong scalability, Twitter PageRank (total seconds by cluster size)\n"
		for _, key := range []string{"blogel-v", "giraph", "gl-s-r-i", "gelly", "graphx"} {
			s, err := core.SystemByKey(key)
			if err != nil {
				b.Fatal(err)
			}
			line := fmt.Sprintf("  %-9s", s.Label)
			for _, m := range core.ClusterSizes {
				res := r.Run(s, datasets.Twitter, engine.PageRank, m)
				if res.Status != sim.OK {
					line += fmt.Sprintf(" %8s", res.Status)
				} else {
					line += fmt.Sprintf(" %7.0fs", res.TotalTime())
				}
			}
			out += line + "\n"
		}
		emit("ab6", out)
	}
}

// snapshotFixture generates the scale-default Twitter fixture shared
// by the snapshot-vs-text load benchmarks — the graph every engine
// loads at the start of a default harness run.
var snapshotFixture = sync.OnceValue(func() *graph.Graph {
	return datasets.Generate(datasets.Twitter, datasets.Options{Scale: datasets.DefaultScale, Seed: 1})
})

// BenchmarkSnapshotLoad measures opening a cached binary CSR snapshot
// of the scale-default Twitter fixture: one arena read (mmap on
// linux), a checksum, and linear validation scans. The acceptance bar
// for the snapshot subsystem is ≥10× BenchmarkTextDecode.
func BenchmarkSnapshotLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "twitter"+snapshot.Ext)
	if err := snapshot.Save(path, snapshotFixture(), 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := snapshot.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// spillFixture generates the scale-up UK analogue (datagen -preset
// scale-up) shared by the spill benchmarks: large enough that a BSP
// run's lean residency (~8 MB: CSR both sides, twin inbox arenas, send
// buckets) overflows the benchmark's 4 MiB budget, forcing the
// out-of-core tier.
var spillFixture = sync.OnceValue(func() *graph.Graph {
	return datasets.Generate(datasets.UK, datasets.Options{Scale: datasets.ScaleUpScale, Seed: 1})
})

// BenchmarkSpill compares one governed out-of-core PageRank superstep
// sequence against the identical in-core run — same graph, same
// partition, same program — so the throughput cost of spilling the
// message plane to checksummed segments is a tracked number. The
// acceptance bar for the memory governor is Spill staying within a
// small constant factor of InCore — ~2x for traversal workloads, ~4x
// for PageRank, which rewrites the full message plane every superstep —
// while its tracked peak stays under the 4 MiB budget (asserted below;
// the bit-identity of outputs and modeled costs is pinned by
// internal/enginetest's acceptance test, not re-checked per iteration).
// Shards is fixed at 1 so allocs/op is deterministic for the
// scripts/bench.sh --compare gate.
func BenchmarkSpill(b *testing.B) {
	g := spillFixture()
	const m = 16
	cut := partition.EdgeCut{M: m, Seed: 7}
	cfg := bsp.Config{
		Graph: g, Scale: 1, M: m, MachineOf: cut.MachineOf, Profile: &blogel.Profile,
		Program: &bsp.PageRankProgram{Damping: 0.15}, Combine: bsp.SumCombine,
		FixedSupersteps: 10, Shards: 1,
	}
	b.Run("InCore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := bsp.Run(sim.NewSize(m), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Spill", func(b *testing.B) {
		gov, err := govern.New(4<<20, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer gov.Close()
		govCfg := cfg
		govCfg.Governor = gov
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := bsp.Run(sim.NewSize(m), govCfg)
			if err != nil {
				b.Fatal(err)
			}
			if !out.Govern.Spilled || out.Govern.PeakBytes > gov.Budget() {
				b.Fatalf("run not bounded out-of-core: %+v", out.Govern)
			}
		}
	})
}

// BenchmarkTextDecode measures the line-by-line path the snapshot
// replaces: parsing the same fixture from the adjacency text format
// and rebuilding the CSR.
func BenchmarkTextDecode(b *testing.B) {
	g := snapshotFixture()
	var buf bytes.Buffer
	if err := graph.Encode(g, graph.FormatAdj, &buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Decode(bytes.NewReader(data), graph.FormatAdj, g.NumVertices()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanner measures one adaptive planning decision end to end
// at serve-path conditions: the dataset profile is already cached (as
// core.Runner caches it), so the cost is candidate scoring and the
// configuration heuristics. A fresh planner per iteration keeps the
// sticky-decision cache from short-circuiting the work being measured.
// Allocations here are per-request serve overhead, so the allocs gate
// tracks them.
func BenchmarkPlanner(b *testing.B) {
	r := runner()
	defer r.Close()
	pr, err := r.TryProfile(datasets.Twitter)
	if err != nil {
		b.Fatal(err)
	}
	req := plan.Request{Dataset: string(datasets.Twitter), Workload: "pagerank", Machines: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := plan.New().Decide(pr, req)
		if d.System == "" {
			b.Fatal("empty decision")
		}
	}
}
