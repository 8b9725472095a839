package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphbench/internal/core"
	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/sim"
)

// serveScale keeps fixtures tiny so a cold run takes milliseconds.
const serveScale = 5_000_000

func TestSchedulerAdmissionControl(t *testing.T) {
	s := newScheduler(1, 1, 1)
	defer s.close()

	p1, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue.
	got := make(chan error, 1)
	go func() {
		p, err := s.acquire(context.Background())
		if err == nil {
			s.release(p)
		}
		got <- err
	}()
	waitFor(t, func() bool { return s.queueDepth() == 1 })

	// The queue is full now: the next acquire sheds immediately.
	if _, err := s.acquire(context.Background()); !errors.Is(err, errOverloaded) {
		t.Fatalf("overloaded acquire returned %v, want errOverloaded", err)
	}

	s.release(p1)
	if err := <-got; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}

	// A queued caller whose deadline expires gets the context error.
	p2, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired acquire returned %v, want DeadlineExceeded", err)
	}
	s.release(p2)
}

// TestSchedulerReusesPools: the slot carries one persistent pool, so
// consecutive runs land on the same warm workers.
func TestSchedulerReusesPools(t *testing.T) {
	s := newScheduler(1, 1, 2)
	defer s.close()
	p1, _ := s.acquire(context.Background())
	s.release(p1)
	p2, _ := s.acquire(context.Background())
	s.release(p2)
	if p1 != p2 {
		t.Fatal("scheduler handed out a different pool on reacquire")
	}
	if p1.Workers() != 2 {
		t.Fatalf("slot pool has %d workers, want 2", p1.Workers())
	}
}

func TestResultCacheSingleFlight(t *testing.T) {
	c := newResultCache()
	key := runKey{dataset: datasets.Twitter, kind: engine.PageRank, system: "giraph", machines: 16}
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (*engine.Result, error) {
		computes.Add(1)
		<-release
		return &engine.Result{System: "G", Status: sim.OK}, nil
	}

	const callers = 8
	statuses := make(chan string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, status, err := c.get(context.Background(), key, compute)
			if err != nil || res == nil {
				t.Errorf("get: %v %v", res, err)
			}
			statuses <- status
		}()
	}
	// Wait until every caller is either the leader or coalesced onto
	// it, then let the single compute finish.
	waitFor(t, func() bool {
		h, m, co := c.stats()
		return h+m+co == callers
	})
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (single-flight)", n)
	}
	counts := map[string]int{}
	for i := 0; i < callers; i++ {
		counts[<-statuses]++
	}
	if counts["miss"] != 1 || counts["coalesced"] != callers-1 {
		t.Fatalf("statuses = %v, want 1 miss and %d coalesced", counts, callers-1)
	}

	// A later call is a plain hit and never invokes compute.
	if _, status, _ := c.get(context.Background(), key, compute); status != "hit" {
		t.Fatalf("warm get = %q, want hit", status)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("hit recomputed: %d computes", n)
	}
}

// TestResultCacheErrorsEvict: an errored computation must not poison
// the key — the next request retries.
func TestResultCacheErrorsEvict(t *testing.T) {
	c := newResultCache()
	key := runKey{dataset: datasets.WRN, kind: engine.WCC, system: "giraph", machines: 16}
	boom := errors.New("boom")
	fail := func() (*engine.Result, error) { return nil, boom }
	if _, _, err := c.get(context.Background(), key, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	res, status, err := c.get(context.Background(), key, func() (*engine.Result, error) {
		return &engine.Result{Status: sim.OK}, nil
	})
	if err != nil || res == nil || status != "miss" {
		t.Fatalf("retry after error: res=%v status=%q err=%v", res, status, err)
	}
}

// TestResultCacheDetachedFill: a leader whose context expires mid-run
// gets an error, but the computation finishes and warms the cache.
func TestResultCacheDetachedFill(t *testing.T) {
	c := newResultCache()
	key := runKey{dataset: datasets.UK, kind: engine.SSSP, system: "giraph", machines: 16}
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the leader's client is already gone
	_, _, err := c.get(ctx, key, func() (*engine.Result, error) {
		defer close(done)
		return &engine.Result{Status: sim.OK}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	<-done // the detached fill still completed
	waitFor(t, func() bool {
		_, status, _ := c.get(context.Background(), key, nil)
		return status == "hit"
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Scale == 0 {
		cfg.Scale = serveScale
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Datasets == nil {
		cfg.Datasets = []datasets.Name{datasets.Twitter}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestServerQueriesAllWorkloads exercises one query per endpoint and
// asserts the cached replay is byte-identical to the cold serve.
func TestServerQueriesAllWorkloads(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 8})

	urls := []string{
		ts.URL + "/v1/pagerank?k=5",
		ts.URL + "/v1/wcc?vertex=3",
		ts.URL + "/v1/sssp?vertex=3",
		ts.URL + "/v1/triangle",
		ts.URL + "/v1/lpa?vertex=3",
		ts.URL + "/v1/sssp?vertex=3&system=vertica", // listed by -list, outside the registry
	}
	for _, url := range urls {
		code, hdr, cold := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: cold status %d: %s", url, code, cold)
		}
		if got := hdr.Get("X-Graphserve-Cache"); got != "miss" {
			t.Fatalf("%s: cold cache header %q, want miss", url, got)
		}
		var decoded map[string]any
		if err := json.Unmarshal(cold, &decoded); err != nil {
			t.Fatalf("%s: body is not JSON: %v", url, err)
		}
		if decoded["status"] != "OK" {
			t.Fatalf("%s: run status %v", url, decoded["status"])
		}

		code, hdr, warm := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("%s: warm status %d", url, code)
		}
		if got := hdr.Get("X-Graphserve-Cache"); got != "hit" {
			t.Fatalf("%s: warm cache header %q, want hit", url, got)
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("%s: cached body differs from cold body:\ncold: %s\nwarm: %s", url, cold, warm)
		}
	}

	// Same workload, different parameters: a distinct cache key runs
	// cold; a pagerank k change reuses the cached run's result.
	if _, hdr, _ := get(t, ts.URL+"/v1/pagerank?k=5&machines=32"); hdr.Get("X-Graphserve-Cache") != "miss" {
		t.Fatal("different machines count should be a cache miss")
	}
	if code, _, body := get(t, ts.URL+"/v1/pagerank?k=3"); code != http.StatusOK {
		t.Fatalf("k=3 over cached run: %d %s", code, body)
	} else {
		var pr struct {
			Top []rankedVertex `json:"top"`
		}
		if err := json.Unmarshal(body, &pr); err != nil || len(pr.Top) != 3 {
			t.Fatalf("top-3 body: %s (err %v)", body, err)
		}
	}
}

func TestServerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 2})
	cases := []struct {
		path string
		want int
	}{
		{"/v1/pagerank?dataset=nope", http.StatusNotFound},
		{"/v1/pagerank?system=nope", http.StatusBadRequest},
		{"/v1/wcc?system=gl-a-r-t", http.StatusBadRequest}, // PageRank-only variant
		// A vertex cut is built for at most 192 machines: refused up
		// front (the run would panic in partition.BuildVertexCut).
		{"/v1/pagerank?system=gl-s-r-i&machines=256", http.StatusBadRequest},
		{"/v1/wcc?system=graphx&machines=193", http.StatusBadRequest},
		{"/v1/pagerank?machines=0", http.StatusBadRequest},
		{"/v1/pagerank?machines=zig", http.StatusBadRequest},
		{"/v1/pagerank?k=-1", http.StatusBadRequest},
		{"/v1/sssp?vertex=-1", http.StatusBadRequest},
		{"/v1/sssp?vertex=99999999", http.StatusBadRequest},
		{"/v1/lpa?vertex=glue", http.StatusBadRequest},
	}
	for _, c := range cases {
		code, _, body := get(t, ts.URL+c.path)
		if code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.path, code, c.want, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %s", c.path, body)
		}
	}
	if code, _, body := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the refused requests: %d %s", code, body)
	}
}

// panicEngine panics in Run once gate is closed.
type panicEngine struct{ gate <-chan struct{} }

func (panicEngine) Name() string { return "panic" }
func (e panicEngine) Run(*sim.Cluster, *engine.Dataset, engine.Workload, engine.Options) *engine.Result {
	<-e.gate
	panic("engine bug")
}

// TestServerPanickingRunAnswers500: a run executes on the cache's
// detached flight goroutine, outside ServeHTTP's recover. A panic there
// must cost the leader and every follower coalesced onto it a 500 —
// never the process — count once, and evict the entry so the next
// request runs again.
func TestServerPanickingRunAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 2})
	d, err := s.runner.TryDataset(datasets.Twitter)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	q := query{
		key: runKey{dataset: datasets.Twitter, kind: engine.PageRank, system: "panic", machines: 16},
		sys: core.System{Key: "panic", New: func() engine.Engine { return panicEngine{gate} }},
		d:   d,
	}
	ask := func() int {
		rec := httptest.NewRecorder()
		s.answer(context.Background(), rec, q, engine.PageRank)
		return rec.Code
	}

	codes := make(chan int, 2)
	go func() { codes <- ask() }()
	waitFor(t, func() bool { _, misses, _ := s.cache.stats(); return misses == 1 })
	go func() { codes <- ask() }()
	waitFor(t, func() bool { _, _, coalesced := s.cache.stats(); return coalesced == 1 })
	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusInternalServerError {
			t.Fatalf("request on the panicking flight answered %d, want 500", code)
		}
	}

	panics := func() uint64 {
		_, _, body := get(t, ts.URL+"/metrics")
		var m metricsBody
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("metrics: %v (%s)", err, body)
		}
		return m.Faults.Panics
	}
	if n := panics(); n != 1 {
		t.Fatalf("panics_total = %d after one panicking flight, want 1", n)
	}
	if code := ask(); code != http.StatusInternalServerError {
		t.Fatalf("request after the panic answered %d, want 500 from a fresh run", code)
	}
	if _, misses, _ := s.cache.stats(); misses != 2 || panics() != 2 {
		t.Fatalf("misses = %d, panics_total = %d: the panicked entry was not evicted and rerun", misses, panics())
	}
	if code, _, _ := get(t, ts.URL+"/v1/wcc?vertex=3"); code != http.StatusOK {
		t.Fatalf("query after the panics answered %d: the admission slot was not released", code)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	code, _, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

// TestServerLoadGenerator drives concurrent mixed-workload traffic at
// a small server, then asserts: every response is a valid outcome, a
// cached replay of each URL is byte-identical to the first serve,
// overload surfaces as 429 + Retry-After, and closing the server
// releases its goroutines (the pools are reused, not respawned).
func TestServerLoadGenerator(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 2, Shards: 2})

	// Mixed workloads over distinct cache keys (machines varies), all
	// fired while the only admission slot is held below: exactly
	// MaxQueue of them queue, the rest must shed with 429.
	kinds := []string{"pagerank", "wcc", "sssp", "triangle", "lpa"}
	var urls []string
	for i := 0; i < 24; i++ {
		urls = append(urls, fmt.Sprintf("%s/v1/%s?machines=%d", ts.URL, kinds[i%len(kinds)], 16+i))
	}

	// Occupy the slot so the burst deterministically overloads the
	// scheduler regardless of how fast individual runs are.
	blocker, err := s.sched.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		code int
		hdr  http.Header
		body []byte
		err  error
	}
	results := make([]outcome, len(urls))
	var done atomic.Int64
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Add(1)
			resp, err := http.Get(url)
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			results[i] = outcome{resp.StatusCode, resp.Header, body, err}
		}()
	}
	// Release the slot only once the queue is saturated and every
	// other request has already shed — the two queued requests then
	// run for real, and no straggler can sneak into a freed slot.
	waitFor(t, func() bool { return s.sched.queueDepth() == 2 && done.Load() == 22 })
	s.sched.release(blocker)
	wg.Wait()

	var ok, shed int
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("%s: %v", urls[i], r.err)
		}
		switch r.code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if r.hdr.Get("Retry-After") == "" {
				t.Errorf("%s: 429 without Retry-After", urls[i])
			}
		default:
			t.Errorf("%s: unexpected status %d: %s", urls[i], r.code, r.body)
		}
	}
	if ok != 2 || shed != 22 {
		t.Fatalf("load: %d ok, %d shed; want exactly 2 admitted (queue depth) and 22 shed", ok, shed)
	}
	t.Logf("load: %d ok, %d shed (429) of %d", ok, shed, len(urls))

	// Replay every successful URL: all hits, byte-identical bodies.
	for i, r := range results {
		if r.code != http.StatusOK {
			continue
		}
		code, hdr, body := get(t, urls[i])
		if code != http.StatusOK || hdr.Get("X-Graphserve-Cache") != "hit" {
			t.Fatalf("%s: replay %d cache=%q", urls[i], code, hdr.Get("X-Graphserve-Cache"))
		}
		if !bytes.Equal(r.body, body) {
			t.Fatalf("%s: cached body differs from cold serve", urls[i])
		}
	}

	// The metrics endpoint reports the story: latency quantiles, the
	// shed requests, and a warm cache.
	code, _, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var m metricsBody
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics body: %v\n%s", err, body)
	}
	if m.RequestsTotal == 0 || m.Latency.Count != m.RequestsTotal {
		t.Fatalf("metrics counters: %+v", m)
	}
	if m.ResponsesByCode["429"] == 0 {
		t.Fatalf("metrics missed the shed requests: %+v", m.ResponsesByCode)
	}
	if m.Cache.Hits == 0 || m.Cache.HitRate <= 0 {
		t.Fatalf("metrics cache stats: %+v", m.Cache)
	}
	t.Logf("latency: p50=%.4fs p95=%.4fs p99=%.4fs over %d requests; cache hit rate %.2f",
		m.Latency.P50, m.Latency.P95, m.Latency.P99, m.Latency.Count, m.Cache.HitRate)

	// Shutdown releases the slot pools and the runner pool: goroutines
	// return to (near) the pre-server baseline, proving runs borrowed
	// the persistent pools instead of leaking per-request workers.
	ts.Close()
	s.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+3 })
}

// waitFor polls cond for up to ~2s, failing the test on timeout.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// TestServerFollowerSurvivesLeaderDisconnect: a coalesced follower must
// not inherit the leader's cancellation. With the only slot held busy,
// a leader and a follower queue on one key; the leader's client goes
// away; once the slot frees, the follower is answered 200 and the
// result is cached.
func TestServerFollowerSurvivesLeaderDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 2})
	url := ts.URL + "/v1/wcc?vertex=3"

	blocker, err := s.sched.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Released exactly once, also when an assertion fails first: Close
	// (in the test cleanup) waits for every slot to come back.
	var release sync.Once
	defer release.Do(func() { s.sched.release(blocker) })

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodGet, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	waitFor(t, func() bool { return s.sched.queueDepth() == 1 })

	followerCode := make(chan int, 1)
	go func() {
		code, _, _ := get(t, url)
		followerCode <- code
	}()
	waitFor(t, func() bool { _, _, coalesced := s.cache.stats(); return coalesced == 1 })

	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader request ended with %v, want its own cancellation", err)
	}
	// The slot frees only after the server has seen the disconnect and
	// finished the leader's handler.
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.requests >= 1
	})
	if depth := s.sched.queueDepth(); depth != 1 {
		t.Fatalf("flight left the admission queue with its leader (depth %d)", depth)
	}
	release.Do(func() { s.sched.release(blocker) })

	if code := <-followerCode; code != http.StatusOK {
		t.Fatalf("follower answered %d after the leader disconnected, want 200", code)
	}
	if code, hdr, _ := get(t, url); code != http.StatusOK || hdr.Get("X-Graphserve-Cache") != "hit" {
		t.Fatalf("replay: %d cache=%q, want a cached 200", code, hdr.Get("X-Graphserve-Cache"))
	}
}
