// Package par is the shared parallel-execution layer: a persistent
// worker runtime, contiguous vertex-range sharding (uniform or
// weight-balanced), and order-preserving map helpers. The runtimes
// (bsp, kernel, gas, blogel) shard their hot per-vertex loops over a
// Plan and merge per-shard accumulators in shard order, so a run's
// outputs and modeled costs are bit-identical for every worker count —
// the property internal/enginetest's determinism tests lock in. The
// harness uses the same pool to run independent experiments of a grid
// concurrently (each run owns a private sim.Cluster, so the matrix is
// embarrassingly parallel).
//
// Pools are persistent: New launches its helper goroutines once and
// every subsequent ForEach dispatch reuses them, so a steady-state
// dispatch performs zero allocations — no goroutine spawns, no
// WaitGroup, no closure boxing. Callers that dispatch in a hot loop
// should hoist the loop body into a closure built once (assigning it to
// the pool's job slot does not allocate; creating the closure does).
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"weak"
)

// Pool runs tasks on a persistent worker runtime. The zero value is not
// usable; construct with New.
//
// Workers() is the pool's *shard granularity* — the number the engines
// size their Plans by, so modeled executions are identical wherever the
// pool runs. The number of OS-level helper goroutines is capped at
// GOMAXPROCS: requesting 8 shards on a 2-core box still executes the
// 8-shard plan (bit-identically), just on 2 goroutines stealing shard
// tickets.
type Pool struct {
	k  int
	rt *poolRuntime // nil when the pool executes inline (parallelism 1)

	leased any // weak.Pointer[T] to the value Lease last handed out
}

// poolRuntime is the state shared with the helper goroutines. It is
// split from Pool so that parked helpers do not keep the Pool object
// reachable: when a caller abandons a pool without Close, the Pool's
// finalizer still runs and shuts the helpers down.
type poolRuntime struct {
	mu     sync.Mutex      // serializes dispatches; ForEach is not reentrant
	wake   []chan struct{} // one buffered token channel per helper
	idle   chan struct{}   // signaled by the last helper to finish a job
	closed bool

	// The reusable job slot: rebuilt in place by every dispatch, so a
	// steady-state ForEach allocates nothing.
	fn       func(int)
	n        int64
	next     atomic.Int64
	pending  atomic.Int64
	stop     atomic.Bool
	panicked atomic.Pointer[WorkerPanic]
}

// New returns a pool with the given shard granularity; values <= 0 mean
// runtime.GOMAXPROCS(0). The pool launches min(k, GOMAXPROCS)-1
// persistent helper goroutines once — the dispatching goroutine itself
// executes tickets too, so a one-worker (or one-CPU) pool runs
// everything inline on the caller with no goroutines at all: the
// sequential execution mode.
//
// Helpers park between dispatches and live until Close. An abandoned
// pool is shut down by a finalizer, but owners with a clear lifecycle
// (an engine run, a Runner) should Close explicitly.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{k: workers}
	helpers := workers
	if max := runtime.GOMAXPROCS(0); helpers > max {
		helpers = max
	}
	helpers-- // the caller is worker zero
	if helpers > 0 {
		rt := &poolRuntime{
			wake: make([]chan struct{}, helpers),
			idle: make(chan struct{}, 1),
		}
		for w := range rt.wake {
			rt.wake[w] = make(chan struct{}, 1)
			go rt.helper(w)
		}
		p.rt = rt
		runtime.SetFinalizer(p, func(p *Pool) { p.rt.close() })
	}
	return p
}

// Workers returns the pool's shard granularity (the worker count it was
// constructed with), the number of shards engines cut their plans into.
func (p *Pool) Workers() int { return p.k }

// Parallelism returns how many goroutines actually execute a dispatch:
// min(Workers, GOMAXPROCS at construction), counting the caller.
func (p *Pool) Parallelism() int {
	if p.rt == nil {
		return 1
	}
	return len(p.rt.wake) + 1
}

// Close shuts the helper goroutines down. The pool must not be used
// afterwards. Close is idempotent and safe to call while no dispatch is
// in flight.
func (p *Pool) Close() {
	if p.rt != nil {
		runtime.SetFinalizer(p, nil)
		p.rt.close()
	}
}

func (rt *poolRuntime) close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return
	}
	rt.closed = true
	for _, ch := range rt.wake {
		close(ch)
	}
}

// helper is one parked worker goroutine: it wakes on its token channel,
// drains tickets of the current job, and parks again. The last helper
// to finish signals the dispatcher.
func (rt *poolRuntime) helper(w int) {
	for range rt.wake[w] {
		rt.runTickets()
		if rt.pending.Add(-1) == 0 {
			rt.idle <- struct{}{}
		}
	}
}

// runTickets executes job tickets until the job is exhausted or a panic
// set the stop flag. Each ticket runs under its own recover, so a panic
// in one task stops the drain promptly: no task observed to start after
// the flag is set.
func (rt *poolRuntime) runTickets() {
	for {
		if rt.stop.Load() {
			return
		}
		i := rt.next.Add(1) - 1
		if i >= rt.n {
			return
		}
		rt.runOne(int(i))
	}
}

func (rt *poolRuntime) runOne(i int) {
	defer func() {
		if r := recover(); r != nil {
			rt.panicked.CompareAndSwap(nil, &WorkerPanic{Value: r, Stack: debug.Stack()})
			rt.stop.Store(true)
		}
	}()
	rt.fn(i)
}

// WorkerPanic carries a panic out of a pool worker to the caller of
// ForEach, preserving the panicking worker's stack trace.
type WorkerPanic struct {
	Value any    // the value originally passed to panic
	Stack []byte // the panicking worker's stack
}

func (wp *WorkerPanic) String() string {
	return fmt.Sprintf("par: worker panic: %v\n%s", wp.Value, wp.Stack)
}

// ForEach runs fn(i) for every i in [0, n), distributing indices over
// the pool's workers, and returns after all calls complete. A
// steady-state call allocates nothing: the job is written into the
// pool's reusable slot and the persistent helpers are woken by one
// channel token each.
//
// A panic in fn is re-raised on the calling goroutine as a *WorkerPanic
// (inline execution — one-worker pools, single-task jobs — panics with
// the original value). After a panic, workers stop claiming new tasks
// promptly: tasks already in flight on other workers finish, but no
// task starts once the panic has been recorded, so partial side effects
// are bounded by parallelism, not by n.
//
// ForEach must not be called from inside a task running on the same
// pool.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	rt := p.rt
	if rt == nil || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.fn = fn
	rt.n = int64(n)
	rt.next.Store(0)
	rt.stop.Store(false)
	rt.panicked.Store(nil)
	helpers := len(rt.wake)
	if helpers > n-1 {
		helpers = n - 1
	}
	rt.pending.Store(int64(helpers))
	for w := 0; w < helpers; w++ {
		rt.wake[w] <- struct{}{}
	}
	rt.runTickets()
	if helpers > 0 {
		<-rt.idle
	}
	rt.fn = nil
	if wp := rt.panicked.Load(); wp != nil {
		panic(wp)
	}
}

// Use returns the external pool when it is non-nil, otherwise a fresh
// pool with the given shard granularity, plus a release func that
// closes only an owned pool. It is the borrow point for serve mode:
// engines run their shard loops on a caller-provided persistent pool
// (kept warm across requests) instead of spawning and closing a private
// one per run, and the shared `pool, release := par.Use(...); defer
// release()` idiom keeps both lifecycles in one line. A borrowed pool
// must not be used by two concurrent runs: ForEach serializes
// dispatches, but interleaving two runs' phases would destroy the
// warm-scratch ownership the engines rely on.
func Use(external *Pool, shards int) (*Pool, func()) {
	if external != nil {
		return external, func() {}
	}
	p := New(shards)
	return p, p.Close
}

// Lease returns the *T the pool's previous borrower leased, or a zero
// one when there is none, it was of another type, or the collector has
// taken it. The pool refers to the value only weakly: the borrower
// keeps it alive for as long as it holds the pointer — across any number
// of collections — and once it lets go, the next collection reclaims the
// value and everything it refers to. A persistent pool's borrowers thus
// find their scratch (bsp's message-plane arena) warm while runs follow
// one another closely, and a pool that sits idle retains nothing. Like
// ForEach, Lease is for the pool's one current borrower and is not
// synchronized.
func Lease[T any](p *Pool) *T {
	if w, ok := p.leased.(weak.Pointer[T]); ok {
		if v := w.Value(); v != nil {
			return v
		}
	}
	v := new(T)
	p.leased = weak.Make(v)
	return v
}

// Shard is one contiguous index range [Lo, Hi) of a Plan.
type Shard struct {
	Index  int
	Lo, Hi int
}

// Len returns the number of indices in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// Plan splits [0, n) into k contiguous shards: uniformly (PlanShards,
// sizes differ by at most one) or balanced by per-index weights
// (PlanWeighted/PlanPrefix, so power-law skew doesn't serialize behind
// one heavy shard). Shards are always contiguous, disjoint, and cover
// [0, n); weighted shards may be empty when the weight mass is
// concentrated.
type Plan struct {
	n, k      int
	base, rem int     // uniform: first rem shards have base+1 elements
	bounds    []int32 // weighted: bounds[i] is the start of shard i; len k+1
}

// PlanShards builds a uniform Plan over n indices with (at most) k
// shards. k <= 0 means one shard; n == 0 yields an empty plan.
func PlanShards(n, k int) Plan {
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	pl := Plan{n: n, k: k}
	if k > 0 {
		pl.base = n / k
		pl.rem = n % k
	}
	return pl
}

// PlanWeighted builds a Plan over len(weights) indices with (at most) k
// shards whose weight sums are balanced: every shard's weight is at
// most total/k + max(weight). Cut points are drawn deterministically
// from the weight prefix sum, so the plan is a pure function of
// (weights, k). Uniform weights degenerate to exactly PlanShards.
func PlanWeighted(k int, weights []int64) Plan {
	n := len(weights)
	uniform := true
	for i := 1; i < n; i++ {
		if weights[i] != weights[0] {
			uniform = false
			break
		}
	}
	if uniform {
		return PlanShards(n, k)
	}
	prefix := make([]int64, n+1)
	for i, w := range weights {
		prefix[i+1] = prefix[i] + w
	}
	return PlanPrefix(prefix, k)
}

// PlanPrefix is PlanWeighted for callers that already hold the weight
// prefix sum (len n+1, prefix[i+1]-prefix[i] = weight of index i) —
// e.g. CSR offset arrays, which are exactly the prefix-summed degrees.
// The prefix must be non-decreasing. The slice is only read during the
// call.
func PlanPrefix(prefix []int64, k int) Plan {
	n := len(prefix) - 1
	if n < 0 {
		n = 0
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k <= 1 {
		return PlanShards(n, k)
	}
	total := prefix[n] - prefix[0]
	bounds := make([]int32, k+1)
	bounds[k] = int32(n)
	j := 0
	for i := 1; i < k; i++ {
		// First index whose prefix reaches the i-th weight quantile;
		// targets are non-decreasing, so j only moves forward.
		target := prefix[0] + total*int64(i)/int64(k)
		for j < n && prefix[j] < target {
			j++
		}
		bounds[i] = int32(j)
	}
	return Plan{n: n, k: k, bounds: bounds}
}

// Count returns the number of shards.
func (pl Plan) Count() int { return pl.k }

// Shard returns the i-th shard.
func (pl Plan) Shard(i int) Shard {
	if pl.bounds != nil {
		return Shard{Index: i, Lo: int(pl.bounds[i]), Hi: int(pl.bounds[i+1])}
	}
	lo := i * pl.base
	if i < pl.rem {
		lo += i
	} else {
		lo += pl.rem
	}
	hi := lo + pl.base
	if i < pl.rem {
		hi++
	}
	return Shard{Index: i, Lo: lo, Hi: hi}
}

// ShardOf returns the index of the shard containing v. Hot send loops
// should prefer a precomputed index-to-shard lookup array (see
// FillShardOf): it is one load instead of a division or binary search.
func (pl Plan) ShardOf(v int) int {
	if pl.bounds != nil {
		lo, hi := 0, pl.k-1
		for lo < hi {
			mid := (lo + hi) / 2
			if int(pl.bounds[mid+1]) <= v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	wide := pl.rem * (pl.base + 1)
	if v < wide {
		return v / (pl.base + 1)
	}
	return pl.rem + (v-wide)/pl.base
}

// FillShardOf writes the shard index of every v in [0, n) into out
// (which must have length pl.n) and returns it. Runtimes that route per
// message build this once per run and replace the per-send ShardOf
// arithmetic with a single array load.
func (pl Plan) FillShardOf(out []int32) []int32 {
	for i := 0; i < pl.k; i++ {
		s := pl.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			out[v] = int32(i)
		}
	}
	return out
}

// Map runs fn(i) for every i in [0, n) on the pool and returns the
// results in index order.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// MapPlan runs fn on each shard of pl concurrently and returns the
// per-shard results in shard order — the deterministic-merge building
// block: callers fold the returned slice left to right, which
// reproduces the sequential accumulation order regardless of worker
// count.
func MapPlan[T any](p *Pool, pl Plan, fn func(s Shard) T) []T {
	out := make([]T, pl.Count())
	p.ForEach(pl.Count(), func(i int) { out[i] = fn(pl.Shard(i)) })
	return out
}

// WorkerScratch is a slab of per-shard scratch state, one slot per
// worker (shard) of the pool it was built for. Engines keep one across
// supersteps so each shard's tallies, buffers, and send buckets live in
// warm memory: slot i is written only by the task running shard i, and
// the coordinating goroutine reads all slots between dispatches — the
// same ownership discipline as every other shard-merged structure.
type WorkerScratch[T any] struct{ slots []T }

// ScratchFor returns a scratch slab sized to the pool's shard count.
func ScratchFor[T any](p *Pool) *WorkerScratch[T] {
	return &WorkerScratch[T]{slots: make([]T, p.k)}
}

// At returns a pointer to slot i.
func (ws *WorkerScratch[T]) At(i int) *T { return &ws.slots[i] }

// Slots returns the backing slice, for shard-order merges.
func (ws *WorkerScratch[T]) Slots() []T { return ws.slots }

// Grow returns s resized to length n, reusing the existing backing
// array when it is large enough and allocating a fresh one otherwise.
// Element contents are unspecified; callers overwrite every slot. It is
// the arena building block of the zero-allocation message plane: hot
// loops keep a buffer across rounds and Grow it to the round's size, so
// steady-state rounds allocate nothing.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	// Over-allocate by 25% so a sequence of slowly growing rounds
	// settles instead of reallocating every time.
	return make([]T, n, n+n/4)
}
