package par

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers raises GOMAXPROCS for the duration of a test so pools
// spawn real helper goroutines even on a single-CPU machine — the
// persistent dispatch path would otherwise run inline everywhere.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// workerCounts covers the boundary shapes the runtimes hit: sequential,
// fewer workers than items, n == workers, n < workers, and n not
// divisible by workers.
var workerCounts = []int{1, 2, 3, 7, 8, 64}

func TestPlanShardsCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 63, 64, 1000} {
		for _, k := range workerCounts {
			pl := PlanShards(n, k)
			if n == 0 && pl.Count() != 0 {
				t.Fatalf("PlanShards(0, %d).Count() = %d, want 0", k, pl.Count())
			}
			want := k
			if want > n {
				want = n
			}
			if pl.Count() != want {
				t.Fatalf("PlanShards(%d, %d).Count() = %d, want %d", n, k, pl.Count(), want)
			}
			next := 0
			for i := 0; i < pl.Count(); i++ {
				s := pl.Shard(i)
				if s.Lo != next {
					t.Fatalf("PlanShards(%d, %d): shard %d starts at %d, want %d", n, k, i, s.Lo, next)
				}
				if s.Len() < 1 {
					t.Fatalf("PlanShards(%d, %d): shard %d is empty", n, k, i)
				}
				for v := s.Lo; v < s.Hi; v++ {
					if got := pl.ShardOf(v); got != i {
						t.Fatalf("PlanShards(%d, %d).ShardOf(%d) = %d, want %d", n, k, v, got, i)
					}
				}
				next = s.Hi
			}
			if next != n {
				t.Fatalf("PlanShards(%d, %d): shards end at %d, want %d", n, k, next, n)
			}
		}
	}
}

func TestPlanShardsBalance(t *testing.T) {
	pl := PlanShards(10, 4)
	sizes := []int{}
	for i := 0; i < pl.Count(); i++ {
		sizes = append(sizes, pl.Shard(i).Len())
	}
	for _, s := range sizes {
		if s < 2 || s > 3 {
			t.Fatalf("PlanShards(10, 4) sizes %v: want each in [2, 3]", sizes)
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 1000} {
		for _, w := range workerCounts {
			counts := make([]int32, n)
			New(w).ForEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", w, n, i, c)
				}
			}
		}
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) has no workers")
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("New(3).Workers() = %d", got)
	}
}

// TestMergeOrderDeterminism is the property every runtime relies on:
// per-shard results folded in shard order reproduce the sequential
// order exactly, for any worker count. Run under -race this also
// checks the shard writes never overlap.
func TestMergeOrderDeterminism(t *testing.T) {
	const n = 10_000
	want := make([]int, n)
	for i := range want {
		want[i] = i * 31
	}
	for _, w := range workerCounts {
		chunks := MapPlan(New(w), PlanShards(n, w), func(s Shard) []int {
			out := make([]int, 0, s.Len())
			for v := s.Lo; v < s.Hi; v++ {
				out = append(out, want[v])
			}
			return out
		})
		var got []int
		for _, c := range chunks {
			got = append(got, c...)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: merged %d items, want %d", w, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: merged[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	got := Map(New(8), 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("Map[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", w)
				}
				switch wp := r.(type) {
				case *WorkerPanic:
					if wp.Value != "boom" {
						t.Fatalf("workers=%d: panic value %v, want boom", w, wp.Value)
					}
					if len(wp.Stack) == 0 {
						t.Fatalf("workers=%d: worker panic lost its stack", w)
					}
				case string:
					if wp != "boom" {
						t.Fatalf("workers=%d: panic value %v, want boom", w, wp)
					}
				default:
					t.Fatalf("workers=%d: unexpected panic value %T %v", w, r, r)
				}
			}()
			New(w).ForEach(100, func(i int) {
				if i == 37 {
					panic("boom")
				}
			})
		}()
	}
}

// TestPanicStopsDraining locks in the prompt-stop contract: once a task
// panics, no new task may start — only tasks already in flight on other
// workers finish, so partial side effects are bounded by parallelism,
// not by n.
func TestPanicStopsDraining(t *testing.T) {
	withWorkers(t, 4)
	p := New(4)
	defer p.Close()
	if p.Parallelism() < 2 {
		t.Fatalf("Parallelism() = %d, want >= 2 with GOMAXPROCS raised", p.Parallelism())
	}
	const n = 1000
	var ran atomic.Int32
	func() {
		defer func() {
			wp, ok := recover().(*WorkerPanic)
			if !ok {
				t.Fatalf("expected *WorkerPanic, got %v", wp)
			}
			if wp.Value != "boom" {
				t.Fatalf("panic value %v, want boom", wp.Value)
			}
		}()
		p.ForEach(n, func(i int) {
			if i == 0 {
				panic("boom") // ticket 0 is claimed first, so this fires immediately
			}
			ran.Add(1)
			time.Sleep(time.Millisecond)
		})
	}()
	// Each worker may finish the one task it had in flight when the
	// stop flag was set, plus scheduling slack; without the drain-stop
	// nearly all n tasks would run.
	if got := ran.Load(); got > 50 {
		t.Fatalf("after a panic, %d of %d remaining tasks still ran; drain should stop promptly", got, n-1)
	}
}

// TestForEachSteadyStateAllocs locks in the persistent runtime's core
// promise: dispatching a job onto warm workers allocates nothing — no
// goroutine spawns, no WaitGroup, no closure boxing (the closure itself
// is hoisted by the caller, as the engines do).
func TestForEachSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	withWorkers(t, 4)
	p := New(4)
	defer p.Close()
	var sink atomic.Int64
	fn := func(i int) { sink.Add(int64(i)) }
	p.ForEach(64, fn) // warm the runtime
	if allocs := testing.AllocsPerRun(100, func() { p.ForEach(64, fn) }); allocs > 0 {
		t.Errorf("steady-state ForEach allocates %.1f objects, want 0", allocs)
	}
}

// TestCloseStopsHelpers verifies the pool lifecycle: Close parks no
// goroutines behind and is idempotent.
func TestCloseStopsHelpers(t *testing.T) {
	withWorkers(t, 4)
	before := runtime.NumGoroutine()
	p := New(4)
	var total atomic.Int64
	p.ForEach(100, func(i int) { total.Add(1) })
	if total.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", total.Load())
	}
	p.Close()
	p.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("helpers still running after Close: %d goroutines, started with %d",
				runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParallelismCappedByGOMAXPROCS(t *testing.T) {
	withWorkers(t, 2)
	if got := New(8).Parallelism(); got != 2 {
		t.Fatalf("New(8).Parallelism() = %d with GOMAXPROCS=2, want 2", got)
	}
	if got := New(8).Workers(); got != 8 {
		t.Fatalf("New(8).Workers() = %d, want 8 (shard granularity is preserved)", got)
	}
	if got := New(1).Parallelism(); got != 1 {
		t.Fatalf("New(1).Parallelism() = %d, want 1", got)
	}
}

// planWeights builds a skewed weight vector: mostly units with
// occasional heavy entries, the power-law shape the weighted plans
// exist for.
func planWeights(rng *rand.Rand, n int) (weights []int64, total, maxw int64) {
	weights = make([]int64, n)
	for i := range weights {
		w := int64(1)
		if rng.Intn(4) == 0 {
			w += int64(rng.Intn(1000))
		}
		weights[i] = w
		total += w
		if w > maxw {
			maxw = w
		}
	}
	return weights, total, maxw
}

// TestPlanWeightedProperties checks the weighted-plan contract on
// random skewed inputs: shards are contiguous, disjoint, and cover
// [0, n); every shard's weight is at most ceil(total/k) + max(weight);
// ShardOf agrees with the shard ranges; and the plan is a pure function
// of (weights, k).
func TestPlanWeightedProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(2000)
		k := workerCounts[rng.Intn(len(workerCounts))]
		weights, total, maxw := planWeights(rng, n)
		pl := PlanWeighted(k, weights)

		wantCount := k
		if wantCount > n {
			wantCount = n
		}
		if pl.Count() != wantCount {
			t.Fatalf("n=%d k=%d: Count() = %d, want %d", n, k, pl.Count(), wantCount)
		}
		next := 0
		kk := pl.Count()
		for i := 0; i < kk; i++ {
			s := pl.Shard(i)
			if s.Lo != next || s.Hi < s.Lo {
				t.Fatalf("n=%d k=%d: shard %d = [%d,%d), want contiguous from %d", n, k, i, s.Lo, s.Hi, next)
			}
			next = s.Hi
			var w int64
			for v := s.Lo; v < s.Hi; v++ {
				w += weights[v]
				if got := pl.ShardOf(v); got != i {
					t.Fatalf("n=%d k=%d: ShardOf(%d) = %d, want %d", n, k, v, got, i)
				}
			}
			if limit := (total+int64(kk)-1)/int64(kk) + maxw; w > limit {
				t.Fatalf("n=%d k=%d: shard %d weight %d exceeds total/k + max(weight) = %d", n, k, i, w, limit)
			}
		}
		if next != n {
			t.Fatalf("n=%d k=%d: shards end at %d, want %d", n, k, next, n)
		}

		again := PlanWeighted(k, weights)
		for i := 0; i < kk; i++ {
			if pl.Shard(i) != again.Shard(i) {
				t.Fatalf("n=%d k=%d: plan not deterministic: shard %d %v vs %v", n, k, i, pl.Shard(i), again.Shard(i))
			}
		}
	}
}

// TestPlanWeightedUniformDegeneratesToPlanShards: uniform weights carry
// no balance information, so the weighted plan must equal the uniform
// plan exactly — same shard boundaries, same ShardOf.
func TestPlanWeightedUniformDegeneratesToPlanShards(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, k := range workerCounts {
			for _, unit := range []int64{1, 5} {
				weights := make([]int64, n)
				for i := range weights {
					weights[i] = unit
				}
				got, want := PlanWeighted(k, weights), PlanShards(n, k)
				if got.Count() != want.Count() {
					t.Fatalf("n=%d k=%d unit=%d: Count %d, want %d", n, k, unit, got.Count(), want.Count())
				}
				for i := 0; i < want.Count(); i++ {
					if got.Shard(i) != want.Shard(i) {
						t.Fatalf("n=%d k=%d unit=%d: shard %d = %v, want %v", n, k, unit, i, got.Shard(i), want.Shard(i))
					}
				}
			}
		}
	}
}

// TestFillShardOf checks the precomputed router agrees with ShardOf for
// both uniform and weighted plans.
func TestFillShardOf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		k := workerCounts[rng.Intn(len(workerCounts))]
		weights, _, _ := planWeights(rng, n)
		for i, pl := range []Plan{PlanShards(n, k), PlanWeighted(k, weights)} {
			out := pl.FillShardOf(make([]int32, n))
			for v := 0; v < n; v++ {
				if int(out[v]) != pl.ShardOf(v) {
					t.Fatalf("n=%d k=%d weighted=%v: FillShardOf[%d] = %d, ShardOf = %d",
						n, k, i == 1, v, out[v], pl.ShardOf(v))
				}
			}
		}
	}
}

func TestWorkerScratch(t *testing.T) {
	p := New(4)
	defer p.Close()
	ws := ScratchFor[[]int](p)
	if len(ws.Slots()) != 4 {
		t.Fatalf("ScratchFor sized %d slots, want 4", len(ws.Slots()))
	}
	p.ForEach(4, func(i int) { *ws.At(i) = append(*ws.At(i), i) })
	p.ForEach(4, func(i int) { *ws.At(i) = append(*ws.At(i), i*10) })
	for i, s := range ws.Slots() {
		if len(s) != 2 || s[0] != i || s[1] != i*10 {
			t.Fatalf("slot %d = %v, want [%d %d] (retained across dispatches)", i, s, i, i*10)
		}
	}
}

func TestGrowReusesCapacity(t *testing.T) {
	s := make([]float64, 0, 100)
	base := &s[:1][0]
	s = Grow(s, 80)
	if len(s) != 80 || &s[0] != base {
		t.Fatalf("Grow(80) reallocated despite cap 100 (len %d)", len(s))
	}
	s = Grow(s, 40)
	if len(s) != 40 || &s[0] != base {
		t.Fatalf("Grow(40) reallocated despite cap 100 (len %d)", len(s))
	}
	s = Grow(s, 200)
	if len(s) != 200 {
		t.Fatalf("Grow(200) len %d", len(s))
	}
	if cap(s) < 200 {
		t.Fatalf("Grow(200) cap %d", cap(s))
	}
}
