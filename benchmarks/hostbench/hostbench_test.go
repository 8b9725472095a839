package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/sim"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {19, 0, false}, // not even the median has ten samples beyond it
		{20, 50, true}, {39, 50, true},
		{40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true},
		{200, 95, true}, {999, 95, true},
		{1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true}, {100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && samplesBeyond(c.n, got) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond", c.n, got, samplesBeyond(c.n, got))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 91: 10, 100: 10, 1: 1} {
		if got := quantile(asc, p); got != want {
			t.Errorf("quantile(p%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestMinSamples(t *testing.T) {
	for p, want := range map[float64]int{50: 20, 75: 40, 90: 100, 99: 1000} {
		if got := minSamples(p); got != want {
			t.Errorf("minSamples(p%v) = %d, want %d", p, got, want)
		}
	}
}

// requestMeter is a meter of n requests completing one every step
// seconds, each taking lat(i) ms, recorded out of order as two clients'
// merged meters are.
func requestMeter(n int, step float64, lat func(i int) float64) *meter {
	m := &meter{seconds: float64(n) * step}
	for _, parity := range []int{1, 0} {
		for i := parity; i < n; i += 2 {
			m.lat = append(m.lat, lat(i))
			m.end = append(m.end, float64(i+1)*step)
		}
	}
	return m
}

func TestSlicesFollowCompletionOrder(t *testing.T) {
	m := requestMeter(10, 0.5, func(i int) float64 { return float64(i) })
	lat, seconds := m.slices(2)
	if len(lat) != 5 || len(seconds) != 5 {
		t.Fatalf("%d slices, want 5", len(lat))
	}
	for i, s := range lat {
		if s[0] != float64(2*i) || s[1] != float64(2*i+1) || seconds[i] != 1 {
			t.Errorf("slice %d = %v over %v s, want [%d %d] over 1 s", i, s, seconds[i], 2*i, 2*i+1)
		}
	}
	if lat, _ := m.slices(3); lat != nil {
		t.Errorf("10 requests hold 3 full slices of 3, fewer than minSlices: got %v", lat)
	}
}

// Interference that slows half the window must not move a request
// percentile or the rate; the same statistics over the whole sample do
// move, which is what the slices are for.
func TestQuietQuartileIgnoresADisturbedHalf(t *testing.T) {
	const n = 4000
	calm := func(i int) float64 { return 1 + float64(i%10)/10 } // 1.0 .. 1.9 ms
	disturbed := func(i int) float64 {
		if i >= n/2 {
			return 3 * calm(i)
		}
		return calm(i)
	}
	a := requestMeter(n, 0.001, calm)
	b := requestMeter(n, 0.001, disturbed)
	for i := range b.end { // the slow half also completes three times more slowly
		if b.end[i] > n/2*0.001 {
			b.end[i] = n/2*0.001 + 3*(b.end[i]-n/2*0.001)
		}
	}
	for _, p := range []float64{50, 90} {
		if qa, qb := a.percentile(p), b.percentile(p); qa != qb {
			t.Errorf("p%v = %v calm, %v with half the window disturbed", p, qa, qb)
		}
		if whole := quantile(sorted(b.lat), p); whole <= a.percentile(p) {
			t.Errorf("p%v of the whole disturbed sample = %v: the test disturbs nothing", p, whole)
		}
	}
	ra, rb := a.requestRate(n*0.001), b.requestRate(2*n*0.001)
	if math.Abs(ra-rb) > 1e-6*ra || math.Abs(ra-1000) > 1e-6*ra {
		t.Errorf("rate = %v calm, %v disturbed, want 1000", ra, rb)
	}
	// Too few requests for slices: the whole sample.
	few := requestMeter(30, 0.1, calm)
	if got, want := few.percentile(50), quantile(sorted(few.lat), 50); got != want {
		t.Errorf("p50 of 30 requests = %v, want the whole sample's %v", got, want)
	}
	if got := few.requestRate(3); got != 10 {
		t.Errorf("rate of 30 requests in 3 s = %v", got)
	}
}

func TestQuietLegs(t *testing.T) {
	m := newMeter(0, 1, nil)
	for pass, slow := range []float64{1, 1, 1, 5, 5, 1, 1, 1} { // two passes hit by a burst
		m.leg("a", 100*slow+float64(pass))
		m.leg("b", 10+float64(pass))
	}
	pass, slowest := m.quietLegs()
	if pass != 101+11 || slowest != 101 {
		t.Errorf("quietLegs = %v, %v; want 112, 101", pass, slowest)
	}
}

// A host that runs everything a fifth slower all window long — the
// yardstick too — must report the timings of the reference host.
func TestTimingsAreStatedAtReferenceSpeed(t *testing.T) {
	def := workloadDef{name: "x", unit: "pass"}
	run := func(slow float64) map[string]metric {
		m := newMeter(0, 1, nil)
		for pass := 0; pass < 8; pass++ {
			m.leg("a", 100*slow)
			m.leg("b", 300*slow)
			m.lat = append(m.lat, 400*slow)
			m.ref = append(m.ref, refNominalNS*slow)
			m.done += 10
		}
		return endToEnd(def, window{m: m, setups: []float64{slow}, setupRef: []float64{refNominalNS * slow}})
	}
	calm, slow := run(1), run(1.2)
	for name, want := range map[string]float64{"setup_s": 1, "latency_p50_ms": 400, "latency_tail_ms": 300, "ops_per_s": 25} {
		if c, s := calm[name].Value, slow[name].Value; math.Abs(c-want) > 1e-9 || math.Abs(s-want) > 1e-9 {
			t.Errorf("%s = %v calm, %v on the slow host, want %v", name, c, s, want)
		}
	}
	if got := hostSlowdown(nil); got != 1 {
		t.Errorf("a window that never timed the yardstick reads slowdown %v", got)
	}
}

func TestHostRefSweepsEveryEdge(t *testing.T) {
	e := quickEnv(t)
	g := oracleFor(e, datasets.Twitter).g
	r := newHostRef(g, 2)
	if len(r.src) != g.NumEdges() || len(r.off) != g.NumVertices()+1 || len(r.rank) != 4 {
		t.Fatalf("copied %d edges of %d, %d offsets, %d buffers", len(r.src), g.NumEdges(), len(r.off), len(r.rank))
	}
	if ns := r.on(2); !(ns > 0) {
		t.Errorf("timing = %v ns per edge", ns)
	}
	for _, buf := range r.rank {
		for v, x := range buf {
			if !(x >= 0.15 && x <= 1) {
				t.Fatalf("rank[%d] = %v left [0.15, 1]: the kernel's time would drift with it", v, x)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "serve.request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "plan.decide", StartNS: 100, EndNS: 110},
		{ID: 3, Parent: 1, Op: 1, Name: "core.run", StartNS: 110, EndNS: 190},
		{ID: 4, Parent: 3, Op: 1, Name: "engine.run.pregel", StartNS: 190, EndNS: 260},
		// A replay that ran longer than what its parent has left is
		// capped: the operation's self times still sum to the root span.
		{ID: 5, Parent: 1, Op: 1, Name: "core.run", StartNS: 260, EndNS: 290},
		// Op 0 belongs to no operation and is left out of the shares.
		{ID: 6, Parent: 0, Op: 0, Name: "grid.pass", StartNS: 0, EndNS: 1000},
	}
	self, clipped := selfTimes(spans)
	want := map[int]int64{1: 0, 2: 10, 3: 10, 4: 70, 5: 10, 6: 1000}
	if clipped[1] != 20 || len(clipped) != 1 {
		t.Errorf("clipped = %v, want 20 ns cut from the second core.run replay of span 1", clipped)
	}
	var total int64
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
		if id != 6 {
			total += self[id]
		}
	}
	if total != spans[0].durNS() {
		t.Errorf("self times of the operation sum to %d, root span took %d", total, spans[0].durNS())
	}
	shares, clippedPct := layerShares(spans)
	if clippedPct != 20 {
		t.Errorf("clipped share = %v %%, want 20", clippedPct)
	}
	if shares["engine"] != 70 || shares["core"] != 20 || shares["plan"] != 10 || shares["serve"] != 0 {
		t.Errorf("layer shares = %v", shares)
	}
	if _, ok := shares["grid"]; ok {
		t.Error("op 0 spans must not appear in layer shares")
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	ran := false
	if id := tr.do(tr.newOp(), 0, "x.y", func() { ran = true }); id != 0 || !ran {
		t.Errorf("nil tracer: id %d ran %v", id, ran)
	}
	if len(tr.snapshot()) != 0 {
		t.Error("nil tracer recorded spans")
	}
}

func TestColdSequence(t *testing.T) {
	const vertices = 1000
	a := coldSequence(7, vertices)
	if want := len(serveKinds) * (maxMachines - minMachines + 1); len(a) != want {
		t.Fatalf("sequence has %d keys, want %d", len(a), want)
	}
	seen := map[[2]int]bool{}
	for i, q := range a {
		key := [2]int{int(q.kind), q.machines}
		if seen[key] {
			t.Fatalf("key %v repeats at %d", key, i)
		}
		seen[key] = true
		if q.kind != serveKinds[i%len(serveKinds)] {
			t.Fatalf("request %d is %s: endpoints must alternate", i, q.kind)
		}
		if q.machines < minMachines || q.machines > maxMachines {
			t.Fatalf("machines %d out of range", q.machines)
		}
		if q.kind == engine.PageRank && (q.param < 1 || q.param > maxTopK) || q.kind != engine.PageRank && (q.param < 0 || q.param >= vertices) {
			t.Fatalf("request %d has parameter %d", i, q.param)
		}
	}
	b := coldSequence(7, vertices)
	c := coldSequence(8, vertices)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different request at %d", i)
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same sequence")
	}
}

func TestRotateIsSeededAndCyclic(t *testing.T) {
	order := func(seed int64) []int {
		xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
		rotate(seed, xs)
		return xs
	}
	a, b := order(1), order(1)
	starts := map[int]bool{}
	for seed := int64(1); seed <= 10; seed++ {
		xs := order(seed)
		starts[xs[0]] = true
		for i := range xs {
			if xs[(i+1)%len(xs)] != (xs[i]+1)%len(xs) {
				t.Fatalf("seed %d: %v is not a rotation", seed, xs)
			}
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different order")
		}
	}
	if len(starts) < 3 {
		t.Errorf("ten seeds gave only %d different starts", len(starts))
	}
}

// quickEnv is the -quick configuration on a scratch directory.
func quickEnv(t *testing.T) *env {
	t.Helper()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // spill roots
	t.Setenv("GRAPHBENCH_SNAPSHOT_DIR", "")
	t.Setenv("GRAPHBENCH_MEM_BUDGET", "")
	return &env{seed: 1, scale: quickScale, seconds: quickSeconds,
		procs: runtime.NumCPU(), setupReps: 1, minPasses: 1, tmp: tmp}
}

// A deliberately corrupted result must be counted as failed, by every
// checker.
func TestCheckersCatchCorruption(t *testing.T) {
	e := quickEnv(t)
	or := oracleFor(e, datasets.Twitter)
	r := newRunner(e)
	defer r.Close()
	giraph := systemByKey("giraph")
	run := func(kind engine.Kind) *engine.Result {
		res, err := r.TryRun(giraph, datasets.Twitter, kind, gridMachines)
		if err != nil || res.Status != sim.OK {
			t.Fatalf("giraph/%s: %v %v", kind, err, res.Status)
		}
		if err := or.checkResult("giraph", res); err != nil {
			t.Fatalf("clean giraph/%s rejected: %v", kind, err)
		}
		return res
	}
	pr, wcc, sssp, khop := run(engine.PageRank), run(engine.WCC), run(engine.SSSP), run(engine.KHop)

	clean := *pr
	pr.Ranks = append([]float64(nil), pr.Ranks...)
	pr.Ranks[3] *= 1 + 1e-6
	if or.checkResult("giraph", pr) == nil {
		t.Error("a perturbed rank passed")
	}
	if sameOutputs(&clean, pr) == nil {
		t.Error("sameOutputs missed a perturbed rank")
	}
	wcc.Labels[len(wcc.Labels)-1]++
	if or.checkResult("giraph", wcc) == nil {
		t.Error("a wrong component label passed")
	}
	sssp.Dist[or.source]++
	if or.checkResult("giraph", sssp) == nil {
		t.Error("a wrong distance passed")
	}
	khop.Dist = khop.Dist[:len(khop.Dist)-1]
	if or.checkResult("giraph", khop) == nil {
		t.Error("a truncated output passed")
	}
	failed := *pr
	failed.Status = sim.OOM
	if err := or.checkResult("giraph", &failed); err != nil {
		t.Errorf("a modeled OOM is a finding, not a failure: %v", err)
	}

	// A superstep-capped traversal answers only for distances below the
	// cap, but may not invent one beyond it.
	want := []int32{0, 1, 2, 3, -1}
	if err := checkDistances([]int32{0, 1, -1, -1, -1}, want, 2); err != nil {
		t.Errorf("capped distances rejected: %v", err)
	}
	if checkDistances([]int32{0, -1, -1, -1, -1}, want, 2) == nil {
		t.Error("a missing distance below the cap passed")
	}
	if checkDistances([]int32{0, 1, 5, -1, -1}, want, 2) == nil {
		t.Error("an invented distance beyond the cap passed")
	}

	// Serve bodies.
	v := 5
	good, _ := json.Marshal(map[string]any{"status": "OK", "workload": "sssp", "vertex": v,
		"source": int(or.source), "distance": int(or.dist[v]), "reachable": or.dist[v] >= 0})
	if err := or.checkServeBody(engine.SSSP, v, good); err != nil {
		t.Errorf("correct sssp body rejected: %v", err)
	}
	bad, _ := json.Marshal(map[string]any{"status": "OK", "workload": "sssp", "vertex": v,
		"source": int(or.source), "distance": int(or.dist[v]) + 1, "reachable": true})
	if or.checkServeBody(engine.SSSP, v, bad) == nil {
		t.Error("a wrong sssp answer passed")
	}
	comp := or.labels[v]
	wccBody := func(size int) []byte {
		b, _ := json.Marshal(map[string]any{"status": "OK", "workload": "wcc", "vertex": v,
			"component": int(comp), "component_size": size})
		return b
	}
	if err := or.checkServeBody(engine.WCC, v, wccBody(or.sizes[comp])); err != nil {
		t.Errorf("correct wcc body rejected: %v", err)
	}
	if or.checkServeBody(engine.WCC, v, wccBody(or.sizes[comp]+1)) == nil {
		t.Error("a wrong component size passed")
	}
	if or.checkServeBody(engine.PageRank, 2, []byte(`{"status":"OK","workload":"pagerank","k":2,"top":[{"vertex":1,"rank":1},{"vertex":2,"rank":3}]}`)) == nil {
		t.Error("an unordered top-k passed")
	}
}

// A failed check makes the run incorrect and lowers what it counts as
// done.
func TestFailedOperationIsCounted(t *testing.T) {
	e := quickEnv(t)
	w := newGrid(e).(*gridWorkload)
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	m := newMeter(0, 1, nil)
	res := w.runner.RunGrid(w.cells)
	m.done = len(res)
	for i := range res {
		if res[i].Ranks != nil && res[i].Status == sim.OK { // a failed cell's output is not held against the oracle
			res[i].Ranks[0] = 2*res[i].Ranks[0] + 1 // past Blogel-B's 10 % too
			break
		}
	}
	for i, r := range res {
		if err := w.checkCell(i, r); err != nil {
			m.fail(err)
		}
	}
	rep := finish(m, nil)
	if rep.Correct || rep.Failed != 1 || rep.Attempted != len(w.cells) {
		t.Errorf("report = %+v, want exactly one failure of %d", rep, len(w.cells))
	}
}

// peak_rss_mb is the window's own high-water mark: on ooc-spill it must
// read below the peak of the ungoverned reference runs of the same cells,
// which prepare makes in the same process before the window.
func TestSpillPeakExcludesUngovernedReference(t *testing.T) {
	e := quickEnv(t)
	e.scale = defaultScale // at quick scale the runtime's own footprint hides the message plane
	w := newSpill(e).(*spillWorkload)
	defer w.tearDown()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	if err := resetPeakRSS(); err != nil {
		t.Skip("the kernel does not let the high-water mark be reset:", err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	ungoverned := peakRSSMB()
	win := runWindow(e, w, 0, nil)
	if win.m.failed != 0 {
		t.Fatalf("%d of %d cells failed: %v", win.m.failed, win.m.done, win.m.firstErr)
	}
	if governed := win.after.peakRSSMB; !(governed < ungoverned) {
		t.Errorf("peak_rss_mb %.1f MB in the governed window, %.1f MB through the ungoverned runs before it", governed, ungoverned)
	} else {
		t.Logf("governed window %.1f MB, ungoverned reference %.1f MB", governed, ungoverned)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickSuite runs every workload in -quick mode, measured and
// traced, and holds what they report against BENCHMARK.json: the same
// workloads (but for hostbench's extra ones), every end-to-end metric (never zero) from the measured run,
// every per-layer metric from the traced one, names and units equal.
func TestQuickSuite(t *testing.T) {
	decl := readBenchmarkJSON(t)
	var listed []workloadDef // extra workloads are hostbench's alone
	for _, def := range workloads {
		if !def.extra {
			listed = append(listed, def)
		}
	}
	if len(decl.Workloads) != len(listed) || len(decl.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json declares %d workloads and %d end-to-end metrics; hostbench has %d and %d",
			len(decl.Workloads), len(decl.EndToEnd), len(listed), len(endToEndSpecs))
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, hostbench's default window is %d", decl.RunSeconds, defaultSeconds)
	}
	for i, spec := range endToEndSpecs {
		d := decl.EndToEnd[i]
		if d.Name != spec.name || d.Unit != spec.unit || d.Better != spec.better || d.Bound != spec.bound {
			t.Errorf("end_to_end[%d] = %+v, hostbench has %+v", i, d, spec)
		}
	}
	for i, def := range listed {
		if d := decl.Workloads[i]; d.Name != def.name || d.Why != def.why {
			t.Errorf("workloads[%d] = %+v, hostbench has %s: %s", i, d, def.name, def.why)
		}
		if len(def.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", def.name, len(def.why))
		}
	}
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			rep, err := runMeasured(quickEnv(t), def)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("report %+v", rep)
			}
			if len(rep.Metrics) != len(endToEndSpecs) {
				t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(endToEndSpecs))
			}
			for _, spec := range endToEndSpecs {
				m, ok := rep.Metrics[spec.name]
				if !ok || m.Unit != spec.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v (reported %v)", spec.name, m, ok)
				}
			}
		})
	}

	out := t.TempDir()
	def, _ := workloadByName("serve-cold")
	rep, err := runTraced(quickEnv(t), def, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced report %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-serve-cold.json")); err != nil {
		t.Errorf("no span file: %v", err)
	}
	if len(rep.Metrics) != len(decl.PerLayer) {
		t.Errorf("traced run reports %d per-layer metrics, BENCHMARK.json declares %d", len(rep.Metrics), len(decl.PerLayer))
	}
	for _, d := range decl.PerLayer {
		m, ok := rep.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per_layer %s (%s) = %+v (reported %v)", d.Name, d.Unit, m, ok)
		}
	}
}
