// Package serve exposes the simulated study as a long-lived query
// service: cmd/graphserve loads the dataset fixtures once at startup,
// keeps persistent engine worker pools warm, and answers workload
// queries (PageRank top-k, WCC membership, SSSP distance, triangle
// counts, LPA communities) over HTTP as JSON.
//
// Three mechanisms make the server fit for concurrent clients:
//
//   - Admission control (scheduler): at most MaxInFlight runs execute
//     at once, each on its own persistent par.Pool; at most MaxQueue
//     requests wait behind them; beyond that the server sheds load with
//     429 + Retry-After instead of queueing unboundedly.
//   - Single-flight result cache (resultCache): runs are deterministic
//     given (dataset, workload, system, machines, shards), so results
//     are memoized and concurrent identical requests coalesce onto one
//     computation. Cache state travels in the X-Graphserve-Cache header
//     (hit | miss | coalesced) — never in the body, so a cached
//     response is byte-identical to the cold one.
//   - Per-request deadlines: every query runs under RequestTimeout;
//     expiry returns 504 while an admitted run finishes in the
//     background and warms the cache.
//
// The serve path is also resilient to recoverable faults (injected by
// an optional chaos.Source, or real in a future backend): runs killed
// by a recoverable failure are retried with exponential backoff and
// jitter; a per-(dataset, workload) circuit breaker turns persistent
// compute errors into fast 503 + Retry-After responses and half-opens
// after a cooldown; and a panic-recovery middleware converts handler
// panics into 500s instead of killing the process.
//
// GET /metrics reports request counts by status, latency quantiles from
// a log-bucketed histogram, cache hit rate, queue depth, in-flight
// runs, fault/retry/recovery counters, and breaker states. GET /healthz
// is the readiness probe.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphbench/internal/chaos"
	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/metrics"
	"graphbench/internal/par"
	"graphbench/internal/plan"
	"graphbench/internal/sim"
)

// Config parameterizes a Server. Zero values select the defaults noted
// on each field.
type Config struct {
	Scale float64 // dataset reduction scale (0 = datasets.DefaultScale)
	Seed  int64   // generation seed

	// Shards is the worker count of each slot's persistent pool (0 =
	// ceil(GOMAXPROCS / MaxInFlight), so concurrent runs share the
	// machine instead of each claiming all of it).
	Shards int

	SnapshotDir string // fixture snapshot cache directory ("" = generate)

	// MemBudget, when positive, bounds the host-side working set of
	// served runs (core.Runner.MemoryBudget): runs degrade — shed
	// scratch, go out-of-core with spill-to-disk — under pressure, and
	// a request whose floor cannot fit the budget is answered 503 +
	// Retry-After instead of OOM-killing the server. Zero keeps the
	// runner's default ($GRAPHBENCH_MEM_BUDGET).
	MemBudget int64

	MaxInFlight    int           // concurrent runs (0 = 2)
	MaxQueue       int           // queued requests beyond that (0 = 8)
	RequestTimeout time.Duration // per-request deadline (0 = 60s)

	// Datasets to warm at startup (nil = all four). Queries against
	// datasets outside this list still work — their fixture is prepared
	// on first use, paying the generation cost on that request (and on
	// that request only: other datasets keep answering meanwhile).
	Datasets []datasets.Name

	// MaxRetries is how many times a run killed by a recoverable fault
	// is retried before the request fails (0 = 2, negative = none).
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry; it
	// doubles per attempt, capped at 1s, with up to 50% jitter (0 = 25ms).
	RetryBackoff time.Duration

	// BreakerThreshold is the consecutive-compute-error count that opens
	// a (dataset, workload) circuit breaker (0 = 3, negative disables by
	// using a very high threshold).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects with 503
	// before half-opening for a probe (0 = 2s).
	BreakerCooldown time.Duration

	// Chaos, when non-nil, injects seeded machine-kill faults into the
	// configured fraction of run attempts (see chaos.Source). Nil
	// disables injection.
	Chaos *chaos.Source
	// Recover enables engine-level fault recovery on served runs
	// (checkpoint rollback, job retry, lineage recomputation), absorbing
	// injected faults inside the run instead of surfacing them to the
	// serve-level retry loop. Note that recovered runs report a larger
	// modeled time, so cached bodies differ from fault-free ones; the
	// default (off) keeps bodies byte-identical by retrying whole runs.
	Recover bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 8
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = (runtime.GOMAXPROCS(0) + c.MaxInFlight - 1) / c.MaxInFlight
	}
	if c.Datasets == nil {
		c.Datasets = datasets.AllNames()
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	} else if c.BreakerThreshold < 0 {
		c.BreakerThreshold = math.MaxInt32
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// Server is the long-lived query service. Create with New, serve with
// any http.Server (it implements http.Handler), shut down with Close.
type Server struct {
	cfg      Config
	runner   *core.Runner
	sched    *scheduler
	cache    *resultCache
	breakers *breakerSet
	mux      *http.ServeMux

	mu       sync.Mutex
	byCode   map[int]uint64
	requests uint64
	latency  *metrics.Histogram

	faultsInjected   atomic.Uint64 // chaos faults that actually fired
	faultsRecovered  atomic.Uint64 // faults absorbed by engine recovery
	retriesTotal     atomic.Uint64 // serve-level run retries
	retriesExhausted atomic.Uint64 // requests failed after all retries
	panics           atomic.Uint64 // handler panics converted to 500s

	// planTotal counts adaptive-planner decisions served; the decisions
	// themselves live in the planner, which /metrics asks.
	planTotal atomic.Uint64

	closeOnce sync.Once
}

// New builds a server and warms every configured dataset fixture, so
// the first query pays no generation cost. A fixture that cannot be
// prepared fails startup — a server that would 500 every request is
// better caught at boot.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	r := core.NewRunner(cfg.Scale, cfg.Seed)
	r.Shards = cfg.Shards
	if cfg.SnapshotDir != "" {
		r.SnapshotDir = cfg.SnapshotDir
	}
	if cfg.MemBudget > 0 {
		r.MemoryBudget = cfg.MemBudget
	}
	for _, name := range cfg.Datasets {
		if _, err := r.TryDataset(name); err != nil {
			return nil, fmt.Errorf("serve: warming fixtures: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		runner:   r,
		sched:    newScheduler(cfg.MaxInFlight, cfg.MaxQueue, cfg.Shards),
		cache:    newResultCache(),
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		byCode:   make(map[int]uint64),
		latency:  metrics.NewHistogram(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/pagerank", s.instrument(s.handleQuery(engine.PageRank)))
	s.mux.HandleFunc("GET /v1/wcc", s.instrument(s.handleQuery(engine.WCC)))
	s.mux.HandleFunc("GET /v1/sssp", s.instrument(s.handleQuery(engine.SSSP)))
	s.mux.HandleFunc("GET /v1/triangle", s.instrument(s.handleQuery(engine.Triangle)))
	s.mux.HandleFunc("GET /v1/lpa", s.instrument(s.handleQuery(engine.LPA)))
	return s, nil
}

// ServeHTTP dispatches to the mux behind a panic-recovery middleware:
// a panicking handler costs its request a 500, never the process. (A
// run panics on the cache's flight goroutine, which recovers for itself;
// see resultCache.run.)
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			writeError(w, http.StatusInternalServerError, "internal error: %v", v)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Close shuts down the slot pools and the runner's matrix pool. It
// blocks until in-flight runs finish; callers should stop the HTTP
// listener first.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.sched.close()
		s.runner.Close()
	})
}

// statusRecorder captures the response code for the metrics middleware.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a query handler with request counting and latency
// observation.
func (s *Server) instrument(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		sec := time.Since(start).Seconds()
		s.mu.Lock()
		s.requests++
		s.byCode[rec.code]++
		s.mu.Unlock()
		s.latency.Observe(sec)
	}
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metricsBody is the /metrics response. Quantiles are in seconds; -1
// means the quantile fell beyond the histogram's last bucket.
type metricsBody struct {
	RequestsTotal   uint64            `json:"requests_total"`
	ResponsesByCode map[string]uint64 `json:"responses_by_code"`
	Latency         latencyBody       `json:"latency_seconds"`
	Cache           cacheBody         `json:"cache"`
	QueueDepth      int64             `json:"queue_depth"`
	InFlight        int               `json:"in_flight"`
	Faults          faultsBody        `json:"faults"`
	Breakers        map[string]string `json:"breakers"`

	// Governor reports the memory governor's ledger (peak tracked heap,
	// spill volume, pressure events); omitted when no budget is set.
	Governor *govern.Stats `json:"governor,omitempty"`

	// Planner reports the adaptive planner's activity (decision count,
	// the decision summary per request cell); omitted until the first
	// system=auto request.
	Planner *plannerBody `json:"planner,omitempty"`
}

// plannerBody is the /metrics view of the adaptive planner.
type plannerBody struct {
	DecisionsTotal uint64            `json:"decisions_total"`
	Decisions      map[string]string `json:"decisions"`
}

// faultsBody reports the resilience counters: chaos injection, engine
// recovery, serve-level retries, and panic conversions.
type faultsBody struct {
	ChaosRate        float64 `json:"chaos_rate"`
	Injected         uint64  `json:"injected_total"`
	Recovered        uint64  `json:"recovered_total"`
	Retries          uint64  `json:"retries_total"`
	RetriesExhausted uint64  `json:"retries_exhausted_total"`
	Panics           uint64  `json:"panics_total"`
}

type latencyBody struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

type cacheBody struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	HitRate   float64 `json:"hit_rate"`
}

// finiteQuantile reads a histogram quantile, mapping the +Inf overflow
// bucket to -1 (JSON cannot carry infinities).
func finiteQuantile(h *metrics.Histogram, q float64) float64 {
	v := h.Quantile(q)
	if math.IsInf(v, 1) {
		return -1
	}
	return v
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hits, misses, coalesced := s.cache.stats()
	lookups := hits + misses + coalesced
	rate := 0.0
	if lookups > 0 {
		// Coalesced lookups count as hits: they were served without a
		// run of their own.
		rate = float64(hits+coalesced) / float64(lookups)
	}
	s.mu.Lock()
	body := metricsBody{
		RequestsTotal:   s.requests,
		ResponsesByCode: make(map[string]uint64, len(s.byCode)),
	}
	for code, n := range s.byCode {
		body.ResponsesByCode[strconv.Itoa(code)] = n
	}
	s.mu.Unlock()
	body.Latency = latencyBody{
		Count: s.latency.Count(),
		P50:   finiteQuantile(s.latency, 0.50),
		P95:   finiteQuantile(s.latency, 0.95),
		P99:   finiteQuantile(s.latency, 0.99),
	}
	body.Cache = cacheBody{Hits: hits, Misses: misses, Coalesced: coalesced, HitRate: rate}
	body.InFlight, body.QueueDepth = s.sched.snapshot()
	chaosRate := 0.0
	if s.cfg.Chaos != nil {
		chaosRate = s.cfg.Chaos.Rate()
	}
	body.Faults = faultsBody{
		ChaosRate:        chaosRate,
		Injected:         s.faultsInjected.Load(),
		Recovered:        s.faultsRecovered.Load(),
		Retries:          s.retriesTotal.Load(),
		RetriesExhausted: s.retriesExhausted.Load(),
		Panics:           s.panics.Load() + s.cache.panics.Load(),
	}
	body.Breakers = s.breakers.states()
	if gov := s.runner.Governor(); gov.Enabled() {
		st := gov.Stats()
		body.Governor = &st
	}
	if total := s.planTotal.Load(); total > 0 {
		body.Planner = &plannerBody{
			DecisionsTotal: total,
			Decisions:      s.runner.Planner().Decisions(),
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// query holds one parsed and validated /v1 request.
type query struct {
	key    runKey
	sys    core.System
	d      *engine.Dataset
	vertex graph.VertexID // wcc/sssp/lpa/triangle target (triangle: -1 = global)
	topK   int            // pagerank

	// plan is the adaptive planner's decision when the request asked
	// for system=auto (the default); nil for explicitly-pinned systems.
	// Its summary travels in the X-Graphserve-Plan response header —
	// like cache provenance, never in the body, so planned responses
	// stay byte-identical to pinned ones.
	plan *plan.Decision
}

// parseQuery validates the common parameters. It writes the error
// response itself and returns ok=false on failure.
func (s *Server) parseQuery(w http.ResponseWriter, r *http.Request, kind engine.Kind) (query, bool) {
	var q query
	vals := r.URL.Query()

	name := datasets.Name(vals.Get("dataset"))
	if name == "" {
		name = datasets.Twitter
	}
	if !datasets.Known(name) {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return q, false
	}

	machines := 16
	if m := vals.Get("machines"); m != "" {
		var err error
		machines, err = strconv.Atoi(m)
		if err != nil || machines < 1 || machines > 4096 {
			writeError(w, http.StatusBadRequest, "machines must be a positive integer, got %q", m)
			return q, false
		}
	}

	// The adaptive planner picks the system (and run configuration)
	// unless the request pins one explicitly.
	sysKey := vals.Get("system")
	if sysKey == "" {
		sysKey = "auto"
	}
	var sys core.System
	var dec *plan.Decision
	if sysKey == "auto" {
		var err error
		dec, err = s.runner.TryDecide(name, kind, machines)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "planning: %v", err)
			return q, false
		}
		if sys, err = core.SystemByKey(dec.System); err != nil {
			writeError(w, http.StatusInternalServerError, "planning: %v", err)
			return q, false
		}
		s.planTotal.Add(1)
	} else {
		var err error
		sys, err = core.SystemByKey(sysKey)
		if err != nil {
			writeError(w, http.StatusBadRequest, "unknown system %q", sysKey)
			return q, false
		}
		if !sys.Runs(kind) {
			writeError(w, http.StatusBadRequest,
				"system %q is a PageRank-only variant and cannot run %s", sysKey, kind)
			return q, false
		}
	}

	if !sys.RunsOn(machines) {
		writeError(w, http.StatusBadRequest,
			"system %q runs on at most %d machines, got %d", sys.Key, sys.MaxMachines, machines)
		return q, false
	}

	// The fixture is warmed at startup for configured datasets; a cold
	// one generates here, under this request's budget.
	d, err := s.runner.TryDataset(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "preparing fixture: %v", err)
		return q, false
	}

	q = query{
		key: runKey{dataset: name, kind: kind, system: sys.Key,
			machines: machines, shards: s.cfg.Shards},
		sys:  sys,
		d:    d,
		plan: dec,
	}

	switch kind {
	case engine.PageRank:
		q.topK = 10
		if k := vals.Get("k"); k != "" {
			q.topK, err = strconv.Atoi(k)
			if err != nil || q.topK < 1 {
				writeError(w, http.StatusBadRequest, "k must be a positive integer, got %q", k)
				return q, false
			}
		}
	case engine.Triangle:
		q.vertex = -1 // global count unless a vertex is named
		if v := vals.Get("vertex"); v != "" {
			if q.vertex, err = parseVertex(v, d.NumVertices); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return q, false
			}
		}
	default: // WCC, SSSP, LPA: vertex-targeted, defaulting to the source
		q.vertex = d.Source
		if v := vals.Get("vertex"); v != "" {
			if q.vertex, err = parseVertex(v, d.NumVertices); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return q, false
			}
		}
	}
	return q, true
}

func parseVertex(s string, n int) (graph.VertexID, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || v >= n {
		return 0, fmt.Errorf("vertex must be in [0, %d), got %q", n, s)
	}
	return graph.VertexID(v), nil
}

// runMeta is the run provenance common to every query response. All
// fields are deterministic functions of the cache key, so responses
// stay byte-identical between cold and cached serves.
type runMeta struct {
	Dataset    string  `json:"dataset"`
	System     string  `json:"system"`
	Workload   string  `json:"workload"`
	Machines   int     `json:"machines"`
	Status     string  `json:"status"`
	Iterations int     `json:"iterations"`
	TotalSec   float64 `json:"modeled_total_sec"`
}

func metaOf(key runKey, res *engine.Result) runMeta {
	return runMeta{
		Dataset:    string(key.dataset),
		System:     res.System,
		Workload:   key.kind.String(),
		Machines:   key.machines,
		Status:     res.Status.String(),
		Iterations: res.Iterations,
		TotalSec:   res.TotalTime(),
	}
}

func (s *Server) handleQuery(kind engine.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		if q, ok := s.parseQuery(w, r, kind); ok {
			s.answer(ctx, w, q, kind)
		}
	}
}

// answer serves a validated query from the result cache, running it on
// a miss.
func (s *Server) answer(ctx context.Context, w http.ResponseWriter, q query, kind engine.Kind) {
	res, cacheStatus, err := s.cache.get(ctx, q.key, func() (*engine.Result, error) {
		// The flight belongs to the server, not to the request that
		// happened to start it: followers coalesce onto it, so only
		// its own deadline — never the leader's disconnect — may end
		// its wait for admission.
		flight, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		return s.compute(flight, q, kind)
	})
	if err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
		case errors.Is(err, errBreakerOpen):
			w.Header().Set("Retry-After", s.breakerRetryAfter())
			writeError(w, http.StatusServiceUnavailable,
				"circuit breaker open for %s/%s, retry later", q.key.dataset, kind)
		case errors.Is(err, govern.ErrBudget):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable,
				"memory budget exhausted for %s/%s, retry later", q.key.dataset, kind)
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	// Cache provenance goes in a header, never the body: cached
	// bodies must be byte-identical to cold ones. The planner
	// decision trace travels the same way.
	w.Header().Set("X-Graphserve-Cache", cacheStatus)
	if q.plan != nil {
		w.Header().Set("X-Graphserve-Plan", q.plan.Summary())
	}

	meta := metaOf(q.key, res)
	if res.Status != sim.OK {
		// A failed run is a deterministic modeled outcome (OOM,
		// timeout, …) — a finding, served as 500 with the same
		// body every time.
		writeJSON(w, http.StatusInternalServerError, struct {
			runMeta
			Error string `json:"error"`
		}{meta, fmt.Sprintf("run failed: %s", res.Status)})
		return
	}
	writeJSON(w, http.StatusOK, queryBody(kind, q, meta, res))
}

// compute runs the query's experiment behind the circuit breaker and
// the retry loop; it executes on the cache's single-flight leader.
// Load shedding and deadline expiry during admission are conditions of
// the request load, not of this (dataset, workload), so they bypass the
// breaker's failure accounting.
func (s *Server) compute(ctx context.Context, q query, kind engine.Kind) (*engine.Result, error) {
	br := s.breakers.get(q.key.dataset, kind)
	if !br.allow() {
		return nil, errBreakerOpen
	}
	pool, err := s.sched.acquire(ctx)
	if err != nil {
		br.cancel()
		return nil, err
	}
	defer s.sched.release(pool)
	// A run that panics (recovered by the cache's flight) is a failed
	// attempt; unrecorded, a half-open probe would stay outstanding and
	// the breaker would refuse this pair for good.
	panicked := true
	defer func() {
		if panicked {
			br.record(false)
		}
	}()
	res, err := s.runWithRetry(pool, q, kind)
	panicked = false
	if errors.Is(err, govern.ErrBudget) {
		// A budget rejection is a condition of the server's memory
		// budget, not of this (dataset, workload): don't count it
		// against the breaker, and don't cache it — headroom may be
		// back for the next request.
		br.cancel()
		return nil, err
	}
	br.record(err == nil)
	return res, err
}

// runWithRetry executes the run, injecting chaos-source faults when
// configured, and retries runs killed by a recoverable fault the engine
// did not absorb — with exponential backoff and jitter, on the detached
// cache leader, while holding the admission slot. Deterministic modeled
// failures (OOM, TO, SHFL, MPI) are findings, returned as results, not
// retried.
func (s *Server) runWithRetry(pool *par.Pool, q query, kind engine.Kind) (*engine.Result, error) {
	attempts := s.cfg.MaxRetries + 1
	var res *engine.Result
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			s.retriesTotal.Add(1)
			sleepBackoff(s.cfg.RetryBackoff, attempt)
		}
		f := core.FaultOpts{Recover: s.cfg.Recover, Plan: q.plan}
		var inj *chaos.Injector
		if p := s.cfg.Chaos.PlanFor(q.key.String(), attempt, q.key.machines); p != nil {
			inj = p.Injector()
			f.Injector = inj
		}
		var err error
		res, err = s.runner.TryRunFault(pool, f, q.sys, q.key.dataset, kind, q.key.machines)
		if err != nil {
			return nil, err // fixture/infrastructure errors: not retryable here
		}
		if inj != nil && inj.Fired() {
			s.faultsInjected.Add(1)
		}
		if n := res.Costs.Failures; n > 0 {
			s.faultsRecovered.Add(uint64(n))
		}
		if errors.Is(res.Err, govern.ErrBudget) {
			// Budget floor unreachable: surfaced as a transport error
			// (503 + Retry-After), never as a cached failed result —
			// the rejection reflects this moment's memory pressure,
			// not the run's deterministic outcome.
			return nil, res.Err
		}
		if !sim.IsRecoverable(res.Err) {
			return res, nil
		}
	}
	s.retriesExhausted.Add(1)
	return nil, fmt.Errorf("run killed by injected fault after %d attempts: %w", attempts, res.Err)
}

// sleepBackoff sleeps the exponential backoff for retry attempt
// (1-based): base doubling per attempt, capped at 1s, plus up to 50%
// random jitter to decorrelate concurrent retriers. The doubling stops
// as soon as the cap is reached — a single shift by attempt-1 would
// overflow to a negative duration during a long retry storm (attempt
// ≥ ~33 for a millisecond base) and panic in rand.Int64N.
func sleepBackoff(base time.Duration, attempt int) {
	if d := backoffDelay(base, attempt); d > 0 {
		time.Sleep(d + time.Duration(rand.Int64N(int64(d)+1))/2)
	}
}

// backoffDelay returns the pre-jitter delay for retry attempt (1-based):
// base·2^(attempt-1), capped at 1s. Always in (0, 1s] for base > 0.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt && d < time.Second; i++ {
		d <<= 1
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// breakerRetryAfter renders the breaker cooldown as a Retry-After
// value, rounded up to at least one second.
func (s *Server) breakerRetryAfter() string {
	sec := int(math.Ceil(s.cfg.BreakerCooldown.Seconds()))
	if sec < 1 {
		sec = 1
	}
	return strconv.Itoa(sec)
}

// rankedVertex is one PageRank top-k entry.
type rankedVertex struct {
	Vertex int     `json:"vertex"`
	Rank   float64 `json:"rank"`
}

// queryBody builds the workload-specific response. Everything here is
// a pure function of the cached result, keeping bodies deterministic.
func queryBody(kind engine.Kind, q query, meta runMeta, res *engine.Result) any {
	switch kind {
	case engine.PageRank:
		return struct {
			runMeta
			K   int            `json:"k"`
			Top []rankedVertex `json:"top"`
		}{meta, q.topK, topRanks(res.Ranks, q.topK)}
	case engine.WCC:
		comp := res.Labels[q.vertex]
		return struct {
			runMeta
			Vertex        int `json:"vertex"`
			Component     int `json:"component"`
			ComponentSize int `json:"component_size"`
		}{meta, int(q.vertex), int(comp), countLabel(res.Labels, comp)}
	case engine.SSSP:
		dist := res.Dist[q.vertex]
		return struct {
			runMeta
			Source    int  `json:"source"`
			Vertex    int  `json:"vertex"`
			Distance  int  `json:"distance"`
			Reachable bool `json:"reachable"`
		}{meta, int(q.d.Source), int(q.vertex), int(dist), dist >= 0}
	case engine.Triangle:
		if q.vertex < 0 {
			return struct {
				runMeta
				TotalTriangles int64 `json:"total_triangles"`
			}{meta, res.TotalTriangles()}
		}
		return struct {
			runMeta
			Vertex            int   `json:"vertex"`
			IncidentTriangles int64 `json:"incident_triangles"`
		}{meta, int(q.vertex), res.Triangles[q.vertex]}
	default: // LPA
		label := res.Labels[q.vertex]
		return struct {
			runMeta
			Vertex        int `json:"vertex"`
			Label         int `json:"label"`
			CommunitySize int `json:"community_size"`
		}{meta, int(q.vertex), int(label), countLabel(res.Labels, label)}
	}
}

// topRanks returns the k highest-ranked vertices, ties broken toward
// the smaller vertex id so the ordering (and the response bytes) are
// fully deterministic.
func topRanks(ranks []float64, k int) []rankedVertex {
	idx := make([]int, len(ranks))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if ranks[idx[a]] != ranks[idx[b]] {
			return ranks[idx[a]] > ranks[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]rankedVertex, k)
	for i := 0; i < k; i++ {
		out[i] = rankedVertex{Vertex: idx[i], Rank: ranks[idx[i]]}
	}
	return out
}

// countLabel counts the vertices carrying the label want. This scan is
// most of a cache-hit WCC or LPA query — the median request of a hot
// server — so it runs on four independent counters: a single counter
// is one dependent conditional-move chain whose speed swung by ±60 %
// with where the linker happened to place the loop (a code deletion in
// an unrelated package moved it), four are bound by the loads instead.
func countLabel(labels []graph.VertexID, want graph.VertexID) int {
	var n0, n1, n2, n3 int
	for ; len(labels) >= 4; labels = labels[4:] {
		if labels[0] == want {
			n0++
		}
		if labels[1] == want {
			n1++
		}
		if labels[2] == want {
			n2++
		}
		if labels[3] == want {
			n3++
		}
	}
	for _, l := range labels {
		if l == want {
			n0++
		}
	}
	return n0 + n1 + n2 + n3
}
