package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"graphbench/internal/bsp"
	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/hdfs"
	"graphbench/internal/metrics"
	"graphbench/internal/par"
	"graphbench/internal/partition"
	"graphbench/internal/plan"
	"graphbench/internal/sim"
	"graphbench/internal/singlethread"
	"graphbench/internal/snapshot"
)

// tracedShare is the part of -seconds each of the traced run's two
// windows (untraced reference, then traced) lasts: the traced run also
// has to fit the layer probes.
const tracedShare = 0.25

// traceLayers are the layers a span can belong to; a traced run reports
// every one, zero where the workload never enters it.
var traceLayers = []string{"serve", "plan", "core", "engine", "bsp", "singlethread"}

// runTraced is the traced run: one set-up, a short untraced window for
// reference, the same window again with spans recorded and every
// operation replayed layer by layer, then the layer probes. It reports
// the per-layer metrics; end-to-end metrics never come from here.
func runTraced(e *env, def workloadDef, out string) (report, error) {
	short := *e
	short.minPasses = 1 // the windows are a quarter long; one pass has to do
	e = &short
	w := def.new(e)
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	if err := w.prepare(); err != nil {
		return report{}, fmt.Errorf("preparing checks: %w", err)
	}
	ref := runWindow(e, w, e.seconds*tracedShare, nil)
	tr := newTracer()
	traced := runWindow(e, w, e.seconds*tracedShare, tr)
	total := ref.all()
	total.merge(traced.all())
	verify(w, total)
	w.tearDown() // the probes start from an empty heap

	spans := tr.snapshot()
	path := filepath.Join(out, "trace-"+def.name+".json")
	if err := tr.write(path); err != nil {
		return report{}, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("# %s traced: %d operations, %d spans -> %s\n", def.name, tr.ops, len(spans), path)

	p := &probe{e: e, out: map[string]metric{}}
	shares, clippedPct := layerShares(spans)
	for _, l := range traceLayers {
		p.put("trace.self_pct."+l, tr.ops, shares[l], "%")
	}
	p.put("trace.clipped_pct", tr.ops, clippedPct, "%")
	p.put("trace_overhead_pct", len(traced.m.lat), 100*(median(traced.m.lat)/median(ref.m.lat)-1), "%")
	if err := p.all(); err != nil {
		return report{}, fmt.Errorf("layer probes: %w", err)
	}
	printMetrics(def.name, p.out, nil)
	return finish(total, p.out), nil
}

// probe times each layer's public functions directly, on fixtures of
// its own. The probes are the same whatever workload the traced run
// belongs to, so per-layer numbers of different workloads' runs are
// comparable with each other.
type probe struct {
	e   *env
	out map[string]metric

	twitter, wrn        *graph.Graph
	twSource, wrnSource graph.VertexID
	dataset             *engine.Dataset // twitter, prepared
	engineMS            map[string]float64
}

// put records one per-layer metric; n is how many samples v summarizes.
func (p *probe) put(name string, n int, v float64, unit string) {
	p.out[name] = metric{Value: v, Unit: unit, N: n}
}

// timeMS runs fn reps times and returns the median milliseconds.
func timeMS(reps int, fn func()) float64 {
	samples := make([]float64, reps)
	for i := range samples {
		t := time.Now()
		fn()
		samples[i] = ms(time.Since(t))
	}
	return median(samples)
}

// perCallNS times batches of calls and returns the median nanoseconds
// per call.
func perCallNS(batches, calls int, fn func()) float64 {
	return 1e6 * timeMS(batches, func() {
		for i := 0; i < calls; i++ {
			fn()
		}
	}) / float64(calls)
}

// sink keeps a probed call's result reachable so the compiler cannot
// drop the call.
var sink any

func (p *probe) all() error {
	for _, step := range []func() error{
		p.fixtures, p.primitives, p.oracles, p.bspLegs, p.engines, p.coreLayer, p.governLayer, p.planLayer, p.serveLayer,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// fixtures times what set-up is made of: generation, the snapshot
// container, HDFS preparation, the planner profile.
func (p *probe) fixtures() error {
	opt := datasets.Options{Scale: p.e.scale, Seed: graphSeed}
	p.put("datasets.generate_ms.twitter", 1, timeMS(1, func() { p.twitter = datasets.Generate(datasets.Twitter, opt) }), "ms")
	p.put("datasets.generate_ms.wrn", 1, timeMS(1, func() { p.wrn = datasets.Generate(datasets.WRN, opt) }), "ms")
	p.twSource = datasets.SourceVertex(p.twitter, 42)
	p.wrnSource = datasets.SourceVertex(p.wrn, 42)

	var err error
	snap := filepath.Join(p.e.tmp, "probe"+snapshot.Ext)
	p.put("snapshot.save_ms", 1, timeMS(1, func() { err = snapshot.Save(snap, p.twitter, graphSeed) }), "ms")
	if err != nil {
		return err
	}
	p.put("snapshot.load_ms", 3, timeMS(3, func() { _, _, err = snapshot.Load(snap) }), "ms")
	if err != nil {
		return err
	}

	p.put("engine.prepare_ms.twitter", 1, timeMS(1, func() {
		p.dataset, err = engine.Prepare(hdfs.New(), p.twitter, "data/twitter", 64, p.twSource)
	}), "ms")
	if err != nil {
		return err
	}
	p.dataset.DilationSSSP = datasets.TraversalDilation(datasets.Twitter, p.twitter, p.twSource)
	p.dataset.DilationWCC = datasets.WCCDilation(datasets.Twitter, p.twitter)
	p.put("plan.profile_ms.twitter", 1, timeMS(1, func() { plan.NewProfile(p.dataset, p.twitter) }), "ms")
	return nil
}

// primitives times the pieces every engine is built from.
func (p *probe) primitives() error {
	pool := par.New(p.e.procs)
	defer pool.Close()
	p.put("par.foreach_dispatch_us", 20*1000, perCallNS(20, 1000, func() { pool.ForEach(p.e.procs, func(int) {}) })/1e3, "us")
	p.put("sim.cluster_new_us", 20*100, perCallNS(20, 100, func() { sink = sim.NewSize(gridMachines) })/1e3, "us")
	p.put("graph.bfs_ms", 5, timeMS(5, func() { graph.BFSDistances(p.twitter, p.twSource) }), "ms")
	p.put("graph.hashmin_ms", 3, timeMS(3, func() { graph.HashMinRounds(p.twitter) }), "ms")
	p.put("partition.voronoi_ms", 3, timeMS(3, func() {
		partition.BuildVoronoi(p.twitter, gridMachines, 11, partition.VoronoiOptions{})
	}), "ms")
	h := metrics.NewHistogram()
	p.put("metrics.histogram_observe_ns", 20*10000, perCallNS(20, 10000, func() { h.Observe(0.003) }), "ns")
	return nil
}

// oracles times the single-thread baselines, the denominators of COST.
func (p *probe) oracles() error {
	p.put("singlethread.pagerank_ms", 5, timeMS(5, func() { singlethread.PageRank(p.twitter, pageRankDamping, 0, pageRankSteps) }), "ms")
	p.put("singlethread.wcc_ms", 5, timeMS(5, func() { singlethread.WCC(p.twitter) }), "ms")
	p.put("singlethread.sssp_ms", 5, timeMS(5, func() { singlethread.SSSP(p.twitter, p.twSource) }), "ms")
	p.put("singlethread.wrn_sssp_ms", 5, timeMS(5, func() { singlethread.SSSP(p.wrn, p.wrnSource) }), "ms")
	return nil
}

// bspLegs times the shared BSP runtime in every configuration of the
// bsp-cost workload and derives COST, edge rate and allocation volume.
func (p *probe) bspLegs() error {
	const reps = 3
	run := func(g *graph.Graph, src graph.VertexID, l bspLeg, maxSupersteps int, stats bool) (*bsp.Output, float64, error) {
		cfg := bspConfig(g, src, l)
		cfg.MaxSupersteps = maxSupersteps
		cfg.RecordIterStats = stats
		var out *bsp.Output
		var err error
		n := reps
		if maxSupersteps > 0 {
			n = 1
		}
		d := timeMS(n, func() {
			if o, e := bsp.Run(sim.NewSize(bspMachines), cfg); e != nil {
				err = e
			} else {
				out = o
			}
		})
		return out, d, err
	}
	legMS := map[string]float64{}
	for _, l := range bspLegs(p.e.procs) {
		before := readUsage()
		out, d, err := run(p.twitter, p.twSource, l, 0, false)
		after := readUsage()
		if err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
		legMS[l.name] = d
		p.put(l.name+"_ms", reps, d, "ms")
		if l.kind != engine.PageRank || l.dir != engine.DirectionAuto {
			continue
		}
		sh := l.name[strings.LastIndexByte(l.name, '.')+1:]
		p.put("bsp.allocs_per_run.pagerank."+sh, reps, float64(after.mallocs-before.mallocs)/reps, "count")
		if l.shards == 1 {
			p.put("bsp.alloc_mb_per_run.pagerank", reps, float64(after.allocBytes-before.allocBytes)/1e6/reps, "MB")
			p.put("bsp.messages.pagerank", 1, out.Messages, "count")
		}
	}
	edgeVisits := float64(pageRankSteps) * float64(p.twitter.NumEdges())
	p.put("bsp.pagerank.ns_per_edge", reps, 1e6*legMS["bsp.pagerank.auto.s1"]/edgeVisits, "ns")
	p.put("bsp.pagerank.push.ns_per_edge", reps, 1e6*legMS["bsp.pagerank.push.s1"]/edgeVisits, "ns")
	p.put("bsp.pagerank.medges_per_s", reps, medgesPerSecond(p.twitter, legMS["bsp.pagerank.auto.sN"]), "1e6/s")
	for _, k := range []string{"pagerank", "wcc", "sssp"} {
		legMS["singlethread."+k] = p.out["singlethread."+k+"_ms"].Value
	}
	for k, ratio := range costRatios(func(name string) float64 { return legMS[name] }) {
		p.put("bsp.cost."+k, reps, ratio, "x")
	}

	out, d, err := run(p.wrn, p.wrnSource, wrnLeg, wrnSupersteps, true)
	if err != nil {
		return fmt.Errorf("%s: %w", wrnLeg.name, err)
	}
	active := 0
	for _, it := range out.IterStats {
		active += it.Active
	}
	p.put("bsp.wrn_sssp.us_per_superstep", 1, 1e3*d/wrnSupersteps, "us")
	p.put("bsp.wrn_sssp.active_per_superstep", len(out.IterStats), float64(active)/float64(len(out.IterStats)), "count")
	return nil
}

// probedEngines are the nine engine packages, each by the system the
// grid runs it as.
var probedEngines = []string{"giraph", "blogel-v", "blogel-b", "gelly", "gl-s-r-i", "graphx", "hadoop", "haloop", "vertica"}

func systemByKey(key string) core.System {
	if key == "vertica" {
		return core.Vertica()
	}
	s, err := core.SystemByKey(key)
	if err != nil {
		panic(err) // the registry lost a system this benchmark is built on
	}
	return s
}

func workloadOf(kind engine.Kind, source graph.VertexID) engine.Workload {
	switch kind {
	case engine.PageRank:
		return engine.NewPageRank()
	case engine.WCC:
		return engine.NewWCC()
	case engine.SSSP:
		return engine.NewSSSP(source)
	default:
		return engine.NewKHop(source)
	}
}

// engines runs every engine package directly, once per workload, one
// shard, twitter at 16 machines: the work a grid cell is made of.
func (p *probe) engines() error {
	p.engineMS = map[string]float64{}
	for _, key := range probedEngines {
		s := systemByKey(key)
		for _, kind := range engine.AllKinds() {
			var res *engine.Result
			d := timeMS(1, func() {
				res = directRun(s, p.dataset, workloadOf(kind, p.twSource), gridMachines, engine.Options{Shards: 1})
			})
			if res.Status != sim.OK {
				return fmt.Errorf("%s/%s: status %v", key, kind, res.Status)
			}
			name := fmt.Sprintf("%s.run_ms.%s", engineLayer(key), kind)
			p.engineMS[name] = d
			p.put(name, 1, d, "ms")
		}
	}
	return nil
}

// coreLayer measures what the runner's two parallelism levels buy on a
// row of the grid. What TryRun adds to one engine run — two cached
// look-ups — is below what the difference of two ~100 ms runs can
// resolve, so it has no probe; trace.self_pct.core carries it.
func (p *probe) coreLayer() error {
	r := newRunner(p.e)
	defer r.Close()
	if _, err := r.TryDataset(datasets.Twitter); err != nil {
		return err
	}
	var row []core.Cell
	for _, s := range gridSystems() {
		row = append(row, core.Cell{System: s, Dataset: datasets.Twitter, Kind: engine.PageRank, Machines: gridMachines})
	}
	seq := newRunner(p.e)
	defer seq.Close()
	seq.Workers, seq.Shards = 1, 1
	if _, err := seq.TryDataset(datasets.Twitter); err != nil {
		return err
	}
	sequential := timeMS(1, func() { seq.RunGrid(row) })
	parallel := timeMS(1, func() { r.RunGrid(row) })
	p.put("core.grid_speedup", 1, sequential/parallel, "x")
	return nil
}

// governLayer runs Giraph out of core, as ooc-spill does, and holds it
// against the ungoverned run.
func (p *probe) governLayer() error {
	giraph := systemByKey("giraph")
	gov := newRunner(p.e)
	defer gov.Close()
	gov.MemoryBudget, gov.Shards = spillBudget(p.e), 1
	for _, kind := range serveKinds {
		var res *engine.Result
		var err error
		governed := timeMS(1, func() { res, err = gov.TryRun(giraph, datasets.Twitter, kind, gridMachines) })
		if err != nil {
			return fmt.Errorf("governed giraph/%s: %w", kind, err)
		}
		p.put("govern.spill_mb."+kind.String(), 1, float64(res.Govern.SpillBytes)/1e6, "MB")
		p.put("govern.peak_mb."+kind.String(), 1, float64(res.Govern.PeakBytes)/1e6, "MB")
		p.put("bsp.ooc_slowdown."+kind.String(), 1, governed/p.engineMS["pregel.run_ms."+kind.String()], "x")
	}
	return nil
}

// planLayer times one planning decision, fresh and sticky.
func (p *probe) planLayer() error {
	pr := plan.NewProfile(p.dataset, p.twitter)
	req := plan.Request{Dataset: string(datasets.Twitter), Workload: "pagerank", Machines: gridMachines}
	p.put("plan.decide_us", 5*40, perCallNS(5, 40, func() { plan.New().Decide(pr, req) })/1e3, "us")
	sticky := plan.New()
	sticky.Decide(pr, req)
	p.put("plan.decide_sticky_us", 5*2000, perCallNS(5, 2000, func() { sticky.Decide(pr, req) })/1e3, "us")
	return nil
}

// serveLayer times the server's own work: construction, cold requests
// against the planned run beneath them, cache hits, the metrics scrape,
// and what a cached key costs in heap.
func (p *probe) serveLayer() error {
	f := &serveFixture{e: p.e}
	var err error
	p.put("serve.new_ms", 1, timeMS(1, func() { err = f.start() }), "ms")
	if err != nil {
		return err
	}
	defer f.tearDown()
	if f.shadow, err = newServeShadow(p.e); err != nil {
		return err
	}

	heapBefore := liveHeapMB()
	tr := newTracer()
	missMS := map[engine.Kind][]float64{}
	var overheads []float64
	bspPlans, misses := 0, 0
	for _, machines := range []int{minMachines, 40, 96} {
		for _, kind := range serveKinds {
			q := query{kind, machines, 1}
			ex, d := f.tracedIssue(tr, q, mustParse(q.url()))
			if ex.code != http.StatusOK || ex.cache != "miss" {
				return fmt.Errorf("%s: status %d cache %q", q.url(), ex.code, ex.cache)
			}
			missMS[kind] = append(missMS[kind], ms(d))
			misses++
			if planIsBSP(ex.plan) {
				bspPlans++
			}
		}
	}
	spans := tr.snapshot() // ids are 1-based positions
	for _, s := range spans {
		if s.Name == "core.run" {
			overheads = append(overheads, float64(spans[s.Parent-1].durNS()-s.durNS())/1e6)
		}
	}
	for _, kind := range serveKinds {
		p.put("serve.miss_ms."+kind.String(), len(missMS[kind]), median(missMS[kind]), "ms")
	}
	p.put("serve.miss_overhead_ms", len(overheads), median(overheads), "ms")
	p.put("serve.bsp_plan_share", misses, float64(bspPlans)/float64(misses), "ratio")
	p.put("serve.heap_mb_per_key", misses, (liveHeapMB()-heapBefore)/float64(misses), "MB")

	for _, kind := range serveKinds {
		q := query{kind, minMachines, 7}
		u := mustParse(q.url())
		n := 2000
		if kind == engine.PageRank {
			n = 100 // a pagerank hit sorts every rank: milliseconds, not microseconds
		}
		before := readUsage().mallocs
		d := timeMS(1, func() {
			for i := 0; i < n; i++ {
				if ex, _ := issue(f.srv, q, u); ex.cache != "hit" {
					err = fmt.Errorf("%s: cache %q", q.url(), ex.cache)
				}
			}
		})
		if err != nil {
			return err
		}
		p.put("serve.hit_us."+kind.String(), n, 1e3*d/float64(n), "us")
		p.put("serve.hit_allocs."+kind.String(), n, float64(readUsage().mallocs-before)/float64(n), "count")
	}

	var body []byte
	scrape := func() {
		req, _ := http.NewRequest(http.MethodGet, "/metrics", nil) // constant, well-formed
		rec := httptest.NewRecorder()
		f.srv.ServeHTTP(rec, req)
		body = rec.Body.Bytes()
	}
	p.put("serve.metrics_scrape_us", 5*40, perCallNS(5, 40, scrape)/1e3, "us")
	p.put("serve.metrics_bytes", 1, float64(len(body)), "bytes")
	var mb struct {
		Cache struct {
			Misses float64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(body, &mb); err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	p.put("serve.cache_entries", 1, mb.Cache.Misses, "count")
	return nil
}

// liveHeapMB is the heap in use after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
