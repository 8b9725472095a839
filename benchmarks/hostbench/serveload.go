package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/par"
	"graphbench/internal/plan"
	"graphbench/internal/serve"
)

// Cold keys draw their cluster size from the paper's range (16-128,
// Table 2) carried on to 256: three endpoints times the paper's sizes are
// 339 keys, and a window at ~19 requests a second uses more.
const (
	minMachines = 16
	maxMachines = 256
	maxTopK     = 100
	hotParams   = 32 // distinct k / vertex values per endpoint in serve-hot
)

var serveKinds = []engine.Kind{engine.PageRank, engine.WCC, engine.SSSP}

// query is one generated request: an endpoint, the cluster size that
// makes its cache key, and the endpoint's parameter (k for pagerank,
// the target vertex otherwise).
type query struct {
	kind     engine.Kind
	machines int
	param    int
}

func (q query) url() string {
	name := "vertex"
	if q.kind == engine.PageRank {
		name = "k"
	}
	return fmt.Sprintf("/v1/%s?dataset=%s&machines=%d&%s=%d", q.kind, datasets.Twitter, q.machines, name, q.param)
}

// param draws an endpoint parameter: k in [1, maxTopK] for pagerank, a
// vertex of the graph otherwise.
func drawParam(rng *rand.Rand, kind engine.Kind, vertices int) int {
	if kind == engine.PageRank {
		return 1 + rng.Intn(maxTopK)
	}
	return rng.Intn(vertices)
}

// coldSequence returns every (endpoint, machines) cache key exactly
// once, in an order fixed by seed. Endpoints alternate so any prefix is
// an even mix of the three; within an endpoint the cluster sizes come in
// a seeded shuffle. Drawing without replacement is what makes every
// request a miss.
func coldSequence(seed int64, vertices int) []query {
	rng := rand.New(rand.NewSource(seed))
	span := maxMachines - minMachines + 1
	perms := make([][]int, len(serveKinds))
	for i := range perms {
		perms[i] = rng.Perm(span)
	}
	seq := make([]query, 0, span*len(serveKinds))
	for i := 0; i < span; i++ {
		for k, kind := range serveKinds {
			seq = append(seq, query{kind, minMachines + perms[k][i], drawParam(rng, kind, vertices)})
		}
	}
	return seq
}

// exchange is one request as the load generator saw it.
type exchange struct {
	q     query
	code  int
	cache string
	plan  string
	body  []byte
}

// issue sends q through the server's handler, in process, and returns
// what came back and how long it took.
func issue(srv *serve.Server, q query, u *url.URL) (exchange, time.Duration) {
	req := &http.Request{Method: http.MethodGet, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Host: "hostbench", RequestURI: u.RequestURI()}
	rec := httptest.NewRecorder()
	t := time.Now()
	srv.ServeHTTP(rec, req)
	d := time.Since(t)
	return exchange{q: q, code: rec.Code, cache: rec.Header().Get("X-Graphserve-Cache"),
		plan: rec.Header().Get("X-Graphserve-Plan"), body: rec.Body.Bytes()}, d
}

func mustParse(raw string) *url.URL {
	u, err := url.Parse(raw)
	if err != nil {
		panic(err) // the generator built a malformed URL
	}
	return u
}

// serveFixture is the in-process server both serve workloads drive.
type serveFixture struct {
	e      *env
	srv    *serve.Server
	or     *oracle
	shadow *serveShadow // traced runs only
}

func (f *serveFixture) start() error {
	srv, err := serve.New(serve.Config{
		Scale: f.e.scale, Seed: graphSeed,
		Datasets:    []datasets.Name{datasets.Twitter},
		MaxInFlight: 2, MaxQueue: 8,
	})
	f.srv = srv
	return err
}

func (f *serveFixture) tearDown() {
	if f.srv != nil {
		f.srv.Close()
		f.srv = nil
	}
	if f.shadow != nil {
		f.shadow.close()
		f.shadow = nil
	}
}

func (f *serveFixture) prepareOracle() { f.or = oracleFor(f.e, datasets.Twitter) }

// clients runs one closed-loop client per CPU, each with its own meter,
// and merges them into m. A closed loop is deliberate: with no more
// connections than CPUs an arrival schedule could not build a
// server-side queue, so each client sends its next request when the
// previous one returns.
func clients(e *env, m *meter, loop func(client int, cm *meter)) {
	meters := make([]*meter, e.procs)
	var wg sync.WaitGroup
	for c := range meters {
		meters[c] = &meter{start: m.start, seconds: m.seconds, minUnits: 1, tr: m.tr}
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(c, meters[c])
		}()
	}
	wg.Wait()
	for _, cm := range meters {
		m.merge(cm)
	}
}

// serveShadow replays a traced request's layers outside the server: a
// runner with the same fixture, and a one-worker pool like the one an
// admission slot lends.
type serveShadow struct {
	mu     sync.Mutex // one replay at a time: the pool must not be shared by concurrent runs
	runner *core.Runner
	pool   *par.Pool
}

func newServeShadow(e *env) (*serveShadow, error) {
	s := &serveShadow{runner: newRunner(e), pool: par.New(1)}
	s.runner.Shards = 1
	if _, err := s.runner.TryProfile(datasets.Twitter); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveShadow) close() {
	s.pool.Close()
	s.runner.Close()
}

// replay records the layers under one traced request: the planning
// decision, and — for a miss — the planned run with the engine's own
// run beneath it.
func (s *serveShadow) replay(tr *tracer, op, root int, q query, miss bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dec *plan.Decision
	var err error
	tr.do(op, root, "plan.decide", func() { dec, err = s.runner.TryDecide(datasets.Twitter, q.kind, q.machines) })
	if err != nil || !miss {
		return
	}
	sys, err := core.SystemByKey(dec.System)
	if err != nil {
		return
	}
	run := tr.do(op, root, "core.run", func() {
		_, _ = s.runner.TryRunPlanned(s.pool, core.FaultOpts{}, dec, datasets.Twitter, q.kind)
	})
	d, _ := s.runner.TryDataset(datasets.Twitter) // cached by TryProfile
	wl, _ := s.runner.TryWorkload(q.kind, datasets.Twitter)
	host := engine.Options{Shards: dec.Shards, Pool: s.pool, ShardPlan: dec.ShardPlan,
		Direction: dec.Direction, MemoryTier: dec.MemoryTier}
	tr.do(op, run, "engine.run."+engineLayer(sys.Key), func() { directRun(sys, d, wl, q.machines, host) })
}

// tracedIssue is issue as a traced operation with its replays.
func (f *serveFixture) tracedIssue(tr *tracer, q query, u *url.URL) (exchange, time.Duration) {
	if tr == nil {
		return issue(f.srv, q, u)
	}
	var ex exchange
	var d time.Duration
	op := tr.newOp()
	root := tr.do(op, 0, "serve.request", func() { ex, d = issue(f.srv, q, u) })
	f.shadow.replay(tr, op, root, q, ex.cache == "miss")
	return ex, d
}

func (f *serveFixture) ensureShadow(tr *tracer) error {
	if tr == nil || f.shadow != nil {
		return nil
	}
	var err error
	f.shadow, err = newServeShadow(f.e)
	return err
}

// serveCold sends only requests whose cache key is new.
type serveCold struct {
	serveFixture
	seq  []query
	next atomic.Int64
	mu   sync.Mutex
	kept []exchange // every response of the window, checked by verify
}

func newServeCold(e *env) workload { return &serveCold{serveFixture: serveFixture{e: e}} }

func (w *serveCold) setUp() error { return w.start() }

func (w *serveCold) prepare() error {
	w.prepareOracle()
	w.seq = coldSequence(w.e.seed, w.or.g.NumVertices())
	return nil
}

func (w *serveCold) measure(m *meter) {
	if err := w.ensureShadow(m.tr); err != nil {
		m.fail(err)
		return
	}
	clients(w.e, m, func(client int, cm *meter) {
		var kept []exchange
		for n := 0; cm.more(n); n++ {
			cm.clientYardstick(w.e.ref, client)
			i := int(w.next.Add(1)) - 1
			if i >= len(w.seq) {
				break // every key used: the window ends early rather than repeat one
			}
			q := w.seq[i]
			ex, d := w.tracedIssue(cm.tr, q, mustParse(q.url()))
			cm.observe(d)
			cm.done++
			kept = append(kept, ex)
		}
		w.mu.Lock()
		w.kept = append(w.kept, kept...)
		w.mu.Unlock()
	})
}

// verify checks every response of the window: 200, a miss, an answer
// the oracle agrees with, and — re-requested now — a hit with a
// byte-identical body.
func (w *serveCold) verify(m *meter) {
	bspPlans := 0
	for _, ex := range w.kept {
		if err := w.checkCold(ex); err != nil {
			m.fail(fmt.Errorf("%s: %w", ex.q.url(), err))
		}
		if planIsBSP(ex.plan) {
			bspPlans++
		}
	}
	if n := len(w.kept); n > 0 {
		m.info = append(m.info, infoLine{"bsp_plan_share", float64(bspPlans) / float64(n), "ratio"})
	}
	w.kept = nil
}

func (w *serveCold) checkCold(ex exchange) error {
	if ex.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", ex.code, bytes.TrimSpace(ex.body))
	}
	if ex.cache != "miss" {
		return fmt.Errorf("cache %q on a key never requested before", ex.cache)
	}
	if err := w.or.checkServeBody(ex.q.kind, ex.q.param, ex.body); err != nil {
		return err
	}
	again, _ := issue(w.srv, ex.q, mustParse(ex.q.url()))
	if again.code != http.StatusOK || again.cache != "hit" {
		return fmt.Errorf("re-request answered %d cache %q, want a hit", again.code, again.cache)
	}
	if !bytes.Equal(again.body, ex.body) {
		return fmt.Errorf("cached body differs from the cold one")
	}
	return nil
}

// planIsBSP reports whether a plan header names a system built on the
// shared BSP runtime.
func planIsBSP(header string) bool {
	for _, sys := range []string{"giraph", "blogel-v", "gelly"} {
		if strings.Contains(header, "system="+sys+" ") {
			return true
		}
	}
	return false
}

// hotEntry is one primed request of serve-hot and the body it must
// always return.
type hotEntry struct {
	q    query
	u    *url.URL
	body []byte
}

// serveHot sends only requests the cache already holds.
type serveHot struct {
	serveFixture
	table [][]hotEntry // per endpoint
}

func newServeHot(e *env) workload { return &serveHot{serveFixture: serveFixture{e: e}} }

// setUp starts the server and primes one key per endpoint: the three
// cold runs every later request hits.
func (w *serveHot) setUp() error {
	if err := w.start(); err != nil {
		return err
	}
	for _, kind := range serveKinds {
		q := query{kind, minMachines, 1}
		if ex, _ := issue(w.srv, q, mustParse(q.url())); ex.code != http.StatusOK {
			return fmt.Errorf("priming %s: status %d: %s", q.url(), ex.code, bytes.TrimSpace(ex.body))
		}
	}
	return nil
}

// prepare builds the request table — hotParams seeded parameters per
// endpoint — and records each entry's body, checked against the oracle
// once here so the window can compare bytes.
func (w *serveHot) prepare() error {
	w.prepareOracle()
	rng := rand.New(rand.NewSource(w.e.seed))
	w.table = make([][]hotEntry, len(serveKinds))
	for k, kind := range serveKinds {
		for i := 0; i < hotParams; i++ {
			q := query{kind, minMachines, drawParam(rng, kind, w.or.g.NumVertices())}
			u := mustParse(q.url())
			ex, _ := issue(w.srv, q, u)
			if err := checkHot(ex, nil); err != nil {
				return fmt.Errorf("%s: %w", q.url(), err)
			}
			if err := w.or.checkServeBody(kind, q.param, ex.body); err != nil {
				return fmt.Errorf("%s: %w", q.url(), err)
			}
			w.table[k] = append(w.table[k], hotEntry{q, u, ex.body})
		}
	}
	return nil
}

// checkHot requires a 200 served from the cache, byte-equal to want
// when want is given.
func checkHot(ex exchange, want []byte) error {
	if ex.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", ex.code, bytes.TrimSpace(ex.body))
	}
	if ex.cache != "hit" {
		return fmt.Errorf("cache %q on a primed key", ex.cache)
	}
	if want != nil && !bytes.Equal(ex.body, want) {
		return fmt.Errorf("body differs from the primed one")
	}
	return nil
}

func (w *serveHot) measure(m *meter) {
	if err := w.ensureShadow(m.tr); err != nil {
		m.fail(err)
		return
	}
	clients(w.e, m, func(client int, cm *meter) {
		rng := rand.New(rand.NewSource(w.e.seed + int64(client) + 1))
		for i := 0; cm.more(i); i++ {
			cm.clientYardstick(w.e.ref, client)
			// Equal thirds per endpoint; the parameter is the seeded part.
			entry := w.table[i%len(serveKinds)][rng.Intn(hotParams)]
			ex, d := w.tracedIssue(cm.tr, entry.q, entry.u)
			cm.observe(d)
			cm.done++
			if err := checkHot(ex, entry.body); err != nil {
				cm.fail(fmt.Errorf("%s: %w", entry.q.url(), err))
			}
		}
	})
}
