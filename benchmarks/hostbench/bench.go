package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every workload is built from: the only inputs the
// program under test sees are generated from seed.
type env struct {
	// seed drives everything that varies between runs: request
	// sequences and parameters, and which cell or leg opens a pass. The
	// graphs do not vary (see graphSeed).
	seed    int64
	scale   float64 // dataset reduction scale (datasets.Options.Scale)
	seconds float64 // length of the measured window
	procs   int     // closed-loop clients and shard count: one per CPU, no more

	setupReps int // set-ups per run; setup_s is their median
	minPasses int // batch workloads run at least this many passes
	tmp       string

	// ref is the host's yardstick, timed after every set-up and between
	// the operations of every window; nil leaves timings as measured.
	ref *hostRef
}

// workload is one named set of inputs. The harness calls setUp (timed,
// repeated after tearDown), prepare (untimed), measure (the window),
// verify if there is one (untimed), and tearDown.
type workload interface {
	// setUp builds everything a user waits for before the first
	// operation: fixtures, runner or server, priming.
	setUp() error
	// tearDown releases what setUp built so it can run again.
	tearDown()
	// prepare builds what only the checks need: oracles, reference
	// outputs. It is not part of setup_s.
	prepare() error
	// measure issues operations until the meter's window closes,
	// recording each timed unit and checking what it cheaply can.
	measure(m *meter)
}

// verifier is a workload with checks that would distort the window —
// oracle comparisons of kept bodies, re-requests — and so run after it.
type verifier interface {
	verify(m *meter)
}

func verify(w workload, m *meter) {
	if v, ok := w.(verifier); ok {
		v.verify(m)
	}
}

// workloadDef names a workload and says how its timings summarize.
type workloadDef struct {
	name string
	why  string
	unit string // what one timed unit is: "pass" or "request"
	// tail is the percentile of requests latency_tail_ms reports, fixed
	// per workload so the metric means the same thing on every run: the
	// highest rung of tailLadder with >= 10 samples beyond it at the
	// workload's usual sample count. 0 on batch workloads, which time a
	// dozen passes, too few for any percentile: their tail is the slowest
	// leg of a pass (see endToEnd).
	tail float64
	// extra marks a workload BENCHMARK.json does not list: the time the
	// driver allows for all its runs holds four windows of defaultSeconds,
	// not five. hostbench itself runs it like any other.
	extra bool
	new   func(e *env) workload
}

var workloads = []workloadDef{
	{
		name: "batch-grid", unit: "pass", tail: 0, new: newGrid,
		why: "regenerating the paper's grid through core.RunGrid: the only workload where every engine family, block partitioning included, does the work",
	},
	{
		name: "bsp-cost", unit: "pass", tail: 0, new: newBSPCost, extra: true,
		why: "the shared BSP runtime alone against the single-thread oracles (COST): dense per-edge legs on twitter, a sparse deep-traversal leg on wrn",
	},
	{
		name: "ooc-spill", unit: "pass", tail: 0, new: newSpill,
		why: "the same BSP layer under a 24 MiB memory budget, messages through spill segments on disk: catches in-core gains that cost the spilled path",
	},
	{
		name: "serve-cold", unit: "request", tail: 90, new: newServeCold,
		why: "closed-loop cold queries, every key new: parse, plan, cache miss, admission, engine run, encode; the result cache only grows",
	},
	{
		name: "serve-hot", unit: "request", tail: 99, new: newServeHot,
		why: "closed-loop cache hits on primed keys: engines idle; parse, sticky plan, cache read, top-k extraction and JSON encoding do everything",
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// meter collects what one window produced. Workloads with concurrent
// clients give each client its own meter and merge them afterwards.
type meter struct {
	start    time.Time
	seconds  float64
	minUnits int
	tr       *tracer

	done     int       // operations completed in the window (cells, runs, requests)
	failed   int       // operations that failed or were incorrect
	firstErr error     // the first failure, for the report
	lat      []float64 // one entry per timed unit, ms
	end      []float64 // requests only, per entry of lat: when it completed, seconds into the window

	ref     []float64 // the host's yardstick, timed between the window's operations, ns per edge
	lastRef time.Time // when this client last timed it

	// legs holds the per-leg samples (ms) of the batch workloads, whose
	// pass is a fixed sequence of different legs (see quietLegs).
	legs     map[string][]float64
	legOrder []string

	// info carries workload-specific derived numbers printed beside the
	// metrics (COST ratios, spill volume); not part of the contract.
	info []infoLine
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func newMeter(seconds float64, minUnits int, tr *tracer) *meter {
	return &meter{start: time.Now(), seconds: seconds, minUnits: minUnits, tr: tr, legs: map[string][]float64{}}
}

// more reports whether to start timed unit n (counting from 0): while
// the window is open, and in any case until minUnits are done, so that
// even a window too short for one unit yields a sample.
func (m *meter) more(n int) bool {
	return n < m.minUnits || time.Since(m.start).Seconds() < m.seconds
}

// observe records one timed request and when it completed.
func (m *meter) observe(d time.Duration) {
	m.lat = append(m.lat, ms(d))
	m.end = append(m.end, time.Since(m.start).Seconds())
}

// quiet summarizes the slices of one window by their lower quartile. The
// host is shared: a neighbour's burst slows the legs or the requests it
// falls on (measured here: passes of a steady 1.75 s running 2.0-2.4 s
// for twenty seconds on end, and twice as long beside one busy process)
// and nothing ever makes a slice faster than the code is, so the quiet
// quarter of a window says what the code costs and the rest what the
// neighbours did. It holds while a quarter of the window is undisturbed;
// the median would give way at a half.
func quiet(perSlice []float64) float64 { return quantile(sorted(perSlice), 25) }

// minSlices is the fewest slices a quartile is taken over.
const minSlices = 4

// slices cuts the window's requests, in the order they completed, into
// runs of n and returns each run's latencies and how long it took to
// complete. A slice is a count of requests, not a stretch of time, so it
// is as long as the statistic taken from it needs whatever the request
// rate. With fewer than minSlices full runs it returns nothing.
func (m *meter) slices(n int) (lat [][]float64, seconds []float64) {
	if len(m.lat)/n < minSlices {
		return nil, nil
	}
	order := make([]int, len(m.lat))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return m.end[order[a]] < m.end[order[b]] })
	from := 0.0
	for i := 0; i+n <= len(order); i += n {
		run := make([]float64, n)
		for j, k := range order[i : i+n] {
			run[j] = m.lat[k]
		}
		to := m.end[order[i+n-1]]
		lat, seconds = append(lat, run), append(seconds, to-from)
		from = to
	}
	return lat, seconds
}

// sliceFor is how many requests a slice holds when the p-th percentile
// is taken from it: half the sample p could be reported from on its own
// (five samples beyond it, not ten — the quartile over the slices does
// the rest, and is the steadier the more slices it has), at least 20.
func sliceFor(p float64) int { return max(20, minSamples(p)/2) }

// percentile is the p-th percentile of the timed requests: the quiet
// quartile of the per-slice percentiles, or the percentile of the whole
// sample when the window holds too few slices.
func (m *meter) percentile(p float64) float64 {
	slices, _ := m.slices(sliceFor(p))
	if slices == nil {
		return quantile(sorted(m.lat), p)
	}
	per := make([]float64, len(slices))
	for i, s := range slices {
		per[i] = quantile(sorted(s), p)
	}
	return quiet(per)
}

// rateSlice is how many requests a slice holds when the request rate is
// taken from it.
const rateSlice = 50

// requestRate is requests completed per second: the upper quartile of
// the per-slice rates (the quiet quarter again: interference only
// lowers a rate), or every request of the window over its length when it
// holds too few slices.
func (m *meter) requestRate(elapsed float64) float64 {
	slices, seconds := m.slices(rateSlice)
	if slices == nil {
		return float64(len(m.lat)) / elapsed
	}
	per := make([]float64, len(slices))
	for i := range slices {
		per[i] = rateSlice / seconds[i]
	}
	return quantile(sorted(per), 75)
}

// yardstick times the host's reference kernel between two legs of a
// pass, on as many CPUs as the legs use.
func (m *meter) yardstick(r *hostRef, cpus int) {
	if r != nil {
		m.ref = append(m.ref, r.on(cpus))
	}
}

// clientYardstick is yardstick for closed-loop client c, between two of
// its requests, every refEvery.
func (m *meter) clientYardstick(r *hostRef, c int) {
	if r == nil || time.Since(m.lastRef) < refEvery {
		return
	}
	m.ref = append(m.ref, r.sweep(c))
	m.lastRef = time.Now()
}

// hostSlowdown is how many times slower than the reference host the
// host ran the yardstick while it was timed, in the quiet quarter like
// every other timing; 1 where it was never timed.
func hostSlowdown(ref []float64) float64 {
	if len(ref) == 0 {
		return 1
	}
	return quiet(ref) / refNominalNS
}

func (m *meter) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

func (m *meter) leg(name string, ms float64) {
	if _, ok := m.legs[name]; !ok {
		m.legOrder = append(m.legOrder, name)
	}
	m.legs[name] = append(m.legs[name], ms)
}

func (m *meter) legMedian(name string) float64 { return median(m.legs[name]) }

func (m *meter) merge(o *meter) {
	m.done += o.done
	m.failed += o.failed
	if m.firstErr == nil {
		m.firstErr = o.firstErr
	}
	m.lat = append(m.lat, o.lat...)
	m.end = append(m.end, o.end...)
	m.ref = append(m.ref, o.ref...)
}

// quietLegs is what a pass and its slowest leg take on a quiet host: the
// sum and the largest of the legs' quiet quartiles. Every batch workload
// times its pass leg by leg, so a burst in one leg of one pass costs that
// leg one sample, not the pass.
func (m *meter) quietLegs() (pass, slowest float64) {
	for _, name := range m.legOrder {
		q := quiet(m.legs[name])
		pass += q
		slowest = max(slowest, q)
	}
	return pass, slowest
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// usage is the process's resource counters at one instant.
type usage struct {
	cpuSeconds float64 // user + system
	peakRSSMB  float64 // high-water mark of resident memory since resetPeakRSS
	allocBytes uint64
	mallocs    uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpuSeconds: tv(ru.Utime) + tv(ru.Stime),
		peakRSSMB:  peakRSSMB(),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
	}
}

// peakRSSMB is VmHWM, the kernel's high-water mark of the process's
// resident memory; NaN where /proc does not say.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS returns the heap's free pages to the system and restarts
// VmHWM from what is resident now, so that the mark read after a window
// is the window's own peak. Without it the mark is the process's: set-up
// repeats and the oracles' and references' construction (ungoverned runs
// of the very cells ooc-spill then runs governed) would hide it. Where
// the kernel refuses, the mark stays the process's.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// window is one measured window's outcome.
type window struct {
	m       *meter
	warm    *meter // the warm-up before it: checked, not timed
	elapsed float64
	before  usage
	after   usage

	setups   []float64
	setupRef []float64 // the host's yardstick, timed after each set-up
}

// all is the warm-up and the window together: every operation that was
// issued and checked.
func (w window) all() *meter {
	total := &meter{}
	total.merge(w.warm)
	total.merge(w.m)
	return total
}

// runWindow measures w for seconds: a collection and a fresh memory
// high-water mark first, so the window starts from the live set; then a
// warm-up of one pass, or one request per client, that is checked but
// not timed, so the window does not pay for the heap pages the
// collection just gave back or for anything the program sets up lazily;
// resource counters read on both sides of the window alone.
func runWindow(e *env, w workload, seconds float64, tr *tracer) window {
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench: peak_rss_mb covers the whole process, not the window alone:", err)
	}
	win := window{warm: newMeter(0, 1, nil)}
	w.measure(win.warm)
	win.before = readUsage()
	win.m = newMeter(seconds, e.minPasses, tr)
	w.measure(win.m)
	win.elapsed = time.Since(win.m.start).Seconds()
	win.after = readUsage()
	return win
}

// setUpRepeated sets the workload up reps times, tearing down in
// between, and returns each set-up's seconds and the timings of the
// host's yardstick taken after each. The last set-up stays up.
func setUpRepeated(e *env, w workload) (setups, ref []float64, err error) {
	for i := 0; i < e.setupReps; i++ {
		if i > 0 {
			w.tearDown()
			debug.FreeOSMemory() // each set-up starts from an empty heap, like the first
		}
		t := time.Now()
		if err := w.setUp(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if e.ref != nil {
			runtime.GC() // or the yardstick shares the CPUs with the collection the set-up's garbage started
			for j := 0; j < 3; j++ {
				ref = append(ref, e.ref.on(1)) // set-up is one thread's work
			}
		}
	}
	return setups, ref, nil
}

// metric is one reported number. N, the number of samples Value
// summarizes, is printed beside it but is not part of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report is the contract's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec is one end-to-end metric as BENCHMARK.json declares it:
// unit, direction, and the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEndSpecs lists the end-to-end metrics in print order; every
// workload reports all of them. BENCHMARK.json carries the same list
// (TestBenchmarkJSONMatches holds the two together).
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.1},
}

func endToEndNames() []string {
	names := make([]string, len(endToEndSpecs))
	for i, s := range endToEndSpecs {
		names[i] = s.name
	}
	return names
}

// endToEnd derives the end-to-end metrics of a window. Operations
// found incorrect — in the window or by verify — do not count as done.
//
// Every timing is the quiet quartile (see quiet) of what the slices of
// the window measured. A window of passes: latency_p50_ms is the quiet
// pass, ops_per_s the operations of a pass over it, and latency_tail_ms
// the quiet time of the pass's slowest leg — the longest a user waits
// for one kind of operation; a dozen passes hold no percentile beyond
// the median. A window of requests: the quiet quartile of the per-slice
// median and tail percentile, and of the per-slice rate. All three, and
// setup_s, are then stated on a host of reference speed: divided (the
// rate multiplied) by how much slower the host ran the yardstick at the
// time (see hostRef), which takes out the drifts that cover a whole
// window.
func endToEnd(def workloadDef, win window) map[string]metric {
	m := win.m
	ops := float64(m.done - m.failed)
	if ops < 1 {
		ops = 1 // an all-failed run still prints; correct=false rejects it
	}
	var rate, p50, tail float64
	if def.unit == "pass" {
		p50, tail = m.quietLegs()
		rate = ops / float64(len(m.lat)) / (p50 / 1e3)
	} else {
		p50, tail, rate = m.percentile(50), m.percentile(def.tail), m.requestRate(win.elapsed)
	}
	slow := hostSlowdown(m.ref)
	p50, tail, rate = p50/slow, tail/slow, rate*slow
	values := map[string]float64{
		"setup_s":         median(win.setups) / hostSlowdown(win.setupRef),
		"ops_per_s":       rate,
		"latency_p50_ms":  p50,
		"latency_tail_ms": tail,
		"peak_rss_mb":     win.after.peakRSSMB,
		"alloc_mb_per_op": float64(win.after.allocBytes-win.before.allocBytes) / 1e6 / ops,
		"allocs_per_op":   float64(win.after.mallocs-win.before.mallocs) / ops,
	}
	out := map[string]metric{}
	for _, spec := range endToEndSpecs {
		n := int(ops)
		switch spec.name {
		case "setup_s":
			n = len(win.setups)
		case "latency_p50_ms", "latency_tail_ms":
			n = len(m.lat)
		case "peak_rss_mb":
			n = 1
		}
		out[spec.name] = metric{values[spec.name], spec.unit, n}
	}
	return out
}

// cpuMSPerOp is the processor time (user + system) of the window per
// operation. It is printed beside the metrics, not gated: on this host
// it follows the neighbours (the same pass costs a third more processor
// time while one is busy), and unlike a timing it cannot be taken from
// the quiet slices alone.
func cpuMSPerOp(win window) float64 {
	return 1e3 * (win.after.cpuSeconds - win.before.cpuSeconds) / float64(max(1, win.m.done-win.m.failed))
}

// tailLabel names the statistic latency_tail_ms carries for def.
func tailLabel(def workloadDef) string {
	if def.unit == "pass" {
		return "slowest leg"
	}
	return fmt.Sprintf("p%g", def.tail)
}

// printMetrics writes one "workload metric value unit samples" line per
// metric, in the given order (sorted when order is nil).
func printMetrics(wl string, ms map[string]metric, order []string) {
	if order == nil {
		for name := range ms {
			order = append(order, name)
		}
		sort.Strings(order)
	}
	for _, name := range order {
		v := ms[name]
		fmt.Printf("%-10s %-34s %14.4f %-6s n=%d\n", wl, name, v.Value, v.Unit, v.N)
	}
}

// printTiming writes a timing the way every timing is reported: median,
// the highest percentile with at least ten samples beyond it (the
// maximum when there is none), and the sample count.
func printTiming(wl, name string, samplesMS []float64) {
	asc := sorted(samplesMS)
	p, ok := tailPercentile(len(asc))
	tail, label := maxOf(asc), "max"
	if ok && p > 50 {
		tail, label = quantile(asc, p), fmt.Sprintf("p%g", p)
	}
	fmt.Printf("%-10s %-34s p50 %10.3f ms  %s %10.3f ms  n=%d\n", wl, name, quantile(asc, 50), label, tail, len(asc))
}
