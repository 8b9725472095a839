package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
)

// runKey identifies one cacheable run. It covers every input that
// determines the modeled result: the runner pins scale and seed, so
// (dataset, workload, system, machines, shards) is the rest of the key.
// Shards is the width of the admission slots' pools (Config.Shards) —
// the shard count every run actually executes on, planned or pinned: a
// run borrows its slot's pool, which supersedes any requested count. So
// system=auto and a pinned request for the system the planner chose
// share one entry. It is in the key defensively — results are
// bit-identical at any shard count, but a key that under-identifies its
// value is how caches rot.
type runKey struct {
	dataset  datasets.Name
	kind     engine.Kind
	system   string
	machines int
	shards   int
}

// String renders the key — used in logs and as the chaos source's
// stable per-run identity, so injected fault schedules are a pure
// function of (chaos seed, key, attempt).
func (k runKey) String() string {
	return fmt.Sprintf("%s/%s/%s/m%d/s%d", k.dataset, k.kind, k.system, k.machines, k.shards)
}

// cacheEntry is one in-progress or completed run. res and err are
// written exactly once, before done is closed; readers must wait on
// done first (the close is the happens-before edge).
type cacheEntry struct {
	done chan struct{}
	res  *engine.Result
	err  error
}

// resultCache memoizes run results with single-flight semantics: the
// first request for a key becomes the leader and computes; concurrent
// requests for the same key coalesce onto the leader's entry instead of
// burning a second admission slot on identical work.
//
// The leader computes in a detached goroutine, so a leader whose
// client disconnects — while queued for admission or mid-run — neither
// fails the requests coalesced onto its entry nor wastes the run: the
// computation finishes and warms the cache. compute must therefore not
// depend on the leader's context; ctx bounds only the caller's own
// wait. Failed *runs* (OOM, timeout — deterministic modeled outcomes)
// are cached like successes; only errors (fixture failures, overload,
// deadline, a panic in compute) evict the entry so a later request
// retries.
type resultCache struct {
	mu sync.Mutex
	m  map[runKey]*cacheEntry

	hits, misses, coalesced atomic.Uint64
	panics                  atomic.Uint64 // flights whose compute panicked, answered 500
}

func newResultCache() *resultCache {
	return &resultCache{m: make(map[runKey]*cacheEntry)}
}

// get returns the cached result for key, computing it via compute on a
// miss. The returned status is "hit" (entry was complete), "coalesced"
// (waited on another request's in-flight computation), or "miss" (this
// call was the leader). On ctx expiry the caller gets ctx.Err() but an
// already-admitted computation keeps running and caches its result.
func (c *resultCache) get(ctx context.Context, key runKey, compute func() (*engine.Result, error)) (*engine.Result, string, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		select {
		case <-e.done:
			c.mu.Unlock()
			c.hits.Add(1)
			return e.res, "hit", e.err
		default:
			c.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-e.done:
				return e.res, "coalesced", e.err
			case <-ctx.Done():
				return nil, "coalesced", ctx.Err()
			}
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	go func() {
		e.res, e.err = c.run(compute)
		if e.err != nil {
			// Errors are conditions of the attempt, not of the key:
			// evict so the next request retries instead of replaying a
			// transient failure forever.
			c.mu.Lock()
			if c.m[key] == e {
				delete(c.m, key)
			}
			c.mu.Unlock()
		}
		close(e.done)
	}()

	select {
	case <-e.done:
		return e.res, "miss", e.err
	case <-ctx.Done():
		return nil, "miss", ctx.Err()
	}
}

// run calls compute with a panic turned into an error. The flight
// goroutine is outside ServeHTTP's recover: an escaped panic would kill
// the process, and an entry whose done never closes would hang every
// request coalesced onto it. As an error it evicts the entry, so the
// leader and its followers answer 500 and the next request recomputes.
func (c *resultCache) run(compute func() (*engine.Result, error)) (res *engine.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			c.panics.Add(1)
			res, err = nil, fmt.Errorf("internal error: %v", v)
		}
	}()
	return compute()
}

// stats returns the cumulative hit/miss/coalesced counters.
func (c *resultCache) stats() (hits, misses, coalesced uint64) {
	return c.hits.Load(), c.misses.Load(), c.coalesced.Load()
}
