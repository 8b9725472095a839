// Package bsp is the vertex-centric Bulk Synchronous Parallel runtime
// shared by the Pregel-style engines (Giraph in internal/pregel,
// Blogel-V in internal/blogel, Gelly in internal/dataflow), which enter
// it through RunWorkload: per-machine vertex partitions, message
// passing with optional sender-side combiners, vote-to-halt semantics,
// aggregator-based stopping, and per-superstep resource charging
// against the simulated cluster.
//
// The runtime performs the real computation (values and messages are
// genuine) while charging modeled costs: CPU from vertex scans and
// message handling; network from combined cross-machine message volume;
// memory from receive buffers. Superstep wall time is the slowest
// machine plus barrier cost — BSP's straggler behaviour.
package bsp

import (
	"fmt"

	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/par"
	"graphbench/internal/sim"
)

// Program is a vertex program in the compute() style of Giraph and
// Blogel-V (§2.1): one function invoked per active vertex per superstep.
type Program interface {
	// Init returns the vertex's initial value.
	Init(v graph.VertexID) float64
	// Compute processes the messages delivered to v this superstep.
	Compute(ctx *Context, msgs []float64)
}

// Config describes one BSP execution.
type Config struct {
	Graph *graph.Graph
	Scale float64 // paper-scale multiplier; defaults to the graph's

	M           int                        // machines
	MachineOf   func(v graph.VertexID) int // vertex placement
	Profile     *sim.Profile               // cost profile
	Program     Program
	Combine     func(a, b float64) float64 // nil disables combining
	CombineFrom int                        // first superstep combining applies (WCC: 1)

	// ScanAll makes every superstep touch all owned vertices (Giraph's
	// behaviour — the source of Table 6's per-iteration floor on WRN);
	// when false only active vertices are touched (Blogel).
	ScanAll bool

	// UseInNeighbors exposes reverse edges to the program from
	// superstep 1 on (the WCC reverse-edge discovery of §5.8).
	UseInNeighbors bool

	MaxSupersteps int // safety bound; <=0 means DefaultMaxSupersteps

	// TimeDilation multiplies every superstep's charged time and
	// network volume: one synthetic superstep stands for TimeDilation
	// paper-scale supersteps (see engine.Dataset.DilationFor). Values
	// below 1 are treated as 1. IterStat.Seconds is reported per
	// paper-scale superstep (i.e. divided back by the dilation).
	TimeDilation float64

	// Shards is the number of vertex-range shards the compute/send and
	// merge phases run on: 0 means GOMAXPROCS, 1 forces sequential
	// execution. Shards are cut from the degree prefix sums
	// (edge-balanced, par.PlanPrefix) and executed by a persistent
	// worker pool whose goroutine count is capped at GOMAXPROCS. Any
	// value produces bit-identical outputs and modeled costs — sends
	// are recorded per (source shard, destination shard) bucket and
	// replayed in shard order, so every destination observes the exact
	// sequential message stream.
	Shards int

	// Pool, when non-nil, is an external persistent pool the shard
	// loops borrow instead of creating one per run (engine.Options.Pool
	// threaded through by the engines); its granularity supersedes
	// Shards.
	Pool *par.Pool

	// CheckpointEvery, when positive, snapshots the superstep state —
	// vertex-value plane, halted flags, pending inbox arena, aggregate
	// counters — every n supersteps and enables rollback-replay
	// recovery: a recoverable machine failure injected at a superstep
	// boundary (sim.Cluster.Boundary) rolls the run back to the last
	// checkpoint and replays, charging modeled checkpoint-write,
	// restart, and re-execution costs (Output.Recovery). Replayed
	// supersteps recompute the exact same state, so recovered outputs
	// are bit-identical to failure-free ones. Zero disables both
	// checkpointing and recovery, and a recoverable fault ends the run.
	CheckpointEvery int

	// Direction selects the traversal direction policy for programs
	// that provide a pull kernel (PullProgram): DirectionAuto (the
	// default) switches per superstep on frontier density,
	// DirectionPush forces the classic send-bucket message plane, and
	// DirectionPull forces pull sweeps from superstep 1 on. Superstep 0
	// always pushes. Outputs, per-superstep accounting, and modeled
	// costs are bit-identical under every policy at every shard count —
	// the direction changes only host wall-clock time.
	Direction engine.Direction

	// StopDeltaBelow stops after a superstep whose aggregated max
	// delta is below the threshold (PageRank tolerance criterion).
	StopDeltaBelow float64
	// FixedSupersteps stops after exactly this many supersteps past
	// superstep 0 (PageRank fixed-iteration criterion).
	FixedSupersteps int

	RecordIterStats bool

	// Governor, when enabled, bounds the run's host working set: the
	// run reserves its projected sizes against the shared budget and
	// degrades in tiers — shedding optional scratch under soft
	// pressure, switching to out-of-core spilled supersteps under hard
	// pressure (see ooc.go) — rather than growing without bound.
	// Outputs, IterStats, and modeled costs are bit-identical in every
	// mode; a budget below even the out-of-core floor fails the run
	// with an error unwrapping to govern.ErrBudget.
	Governor *govern.Governor

	// ShardPlan selects the cut strategy of the primary vertex-sweep
	// plan (weighted degree-work prefix vs uniform ranges). Outputs and
	// modeled costs are bit-identical under either plan; only host wall
	// time changes.
	ShardPlan engine.ShardPlan

	// MemoryTier, under a Governor, pre-picks the governed execution
	// tier: TierSpill goes straight to out-of-core streaming without
	// probing the in-core reservations first. Ignored without a
	// Governor; never changes results.
	MemoryTier engine.MemoryTier

	// probe, when non-nil, counts direction-machinery events; used only
	// by in-package tests to assert their scenarios are not vacuous.
	probe *directionProbe
}

// DefaultMaxSupersteps bounds runaway executions; real runs end earlier
// by quiescence, tolerance, fixed iteration count, or simulated timeout.
const DefaultMaxSupersteps = 1 << 20

// Output is the result of a BSP execution.
type Output struct {
	Values     []float64
	Supersteps int // supersteps past the initial one (= iterations)
	IterStats  []engine.IterStat
	Messages   float64 // total messages produced (synthetic scale)

	// Recovery is the fault-tolerance overhead: checkpoints written and
	// failures survived by rollback-replay (zero when CheckpointEvery
	// is 0 or no fault fired).
	Recovery engine.RecoveryCosts

	// Govern is the run's memory-governor ledger (zero when no
	// governor was configured): peak tracked bytes, spill volume, and
	// pressure reactions.
	Govern govern.RunStats
}

// Context is the per-vertex view handed to Program.Compute. It routes
// vertex-local state through the runtime (values, halted flags are
// owned by the vertex being computed) and everything cross-vertex —
// sends, update counts, the max-delta aggregator — through the compute
// shard, which merges into the runtime in shard order afterwards.
type Context struct {
	ss   *shardState
	rt   *runtime
	v    graph.VertexID
	srcM int32 // machine owning v, stamped once per vertex for sends
}

// Superstep returns the current superstep, starting at 0.
func (c *Context) Superstep() int { return c.rt.superstep }

// Vertex returns the vertex id.
func (c *Context) Vertex() graph.VertexID { return c.v }

// Value returns the vertex's current value.
func (c *Context) Value() float64 { return c.rt.values[c.v] }

// SetValue updates the vertex's value.
func (c *Context) SetValue(x float64) {
	if c.rt.values[c.v] != x {
		c.ss.updates++
	}
	c.rt.values[c.v] = x
}

// OutDegree returns the vertex's out-degree.
func (c *Context) OutDegree() int { return c.rt.cfg.Graph.OutDegree(c.v) }

// OutNeighbors returns the vertex's out-neighbors, sorted ascending.
// The slice aliases graph storage (or, out-of-core, the shard's
// streaming window, where it stays valid until the shard's next
// neighbor fetch) and must not be modified.
func (c *Context) OutNeighbors() []graph.VertexID {
	if c.ss.edgeOut != nil {
		return c.ss.edgeOut.neighbors(c.v)
	}
	return c.rt.cfg.Graph.OutNeighbors(c.v)
}

// NumVertices returns the graph's vertex count.
func (c *Context) NumVertices() int { return c.rt.cfg.Graph.NumVertices() }

// Send delivers a message to dst for the next superstep.
func (c *Context) Send(dst graph.VertexID, val float64) { c.ss.send(c.srcM, dst, val) }

// SendToOut sends val to every out-neighbor.
func (c *Context) SendToOut(val float64) {
	for _, w := range c.OutNeighbors() {
		c.ss.send(c.srcM, w, val)
	}
}

// SendToAllNeighbors sends val to out-neighbors and, when the run was
// configured with reverse-edge discovery, to in-neighbors as well.
func (c *Context) SendToAllNeighbors(val float64) {
	c.SendToOut(val)
	if c.rt.cfg.UseInNeighbors && c.rt.superstep >= 1 {
		if c.ss.edgeIn != nil {
			for _, w := range c.ss.edgeIn.neighbors(c.v) {
				c.ss.send(c.srcM, w, val)
			}
			return
		}
		for _, w := range c.rt.cfg.Graph.InNeighbors(c.v) {
			c.ss.send(c.srcM, w, val)
		}
	}
}

// VoteToHalt deactivates the vertex until a message arrives.
func (c *Context) VoteToHalt() { c.rt.halted[c.v] = true }

// AggregateMaxDelta feeds the superstep's max-delta aggregator, used by
// the PageRank tolerance stopping criterion.
func (c *Context) AggregateMaxDelta(d float64) {
	if d > c.ss.maxDelta {
		c.ss.maxDelta = d
	}
}

// bucket buffers the messages one compute shard sent to one destination
// shard, as parallel arrays rather than a slice of message structs: the
// counting pass streams only dst, the deposit pass streams all three,
// and the buffers are retained across supersteps (clear-by-truncate),
// so steady-state supersteps append into warm memory. The source vertex
// id is not stored — the combiner and cross-machine accounting only
// need the sender's machine, which the Context resolves once per
// computed vertex.
type bucket struct {
	dst  []graph.VertexID
	srcM []int32
	val  []float64
}

// shardState is the private state of one compute shard: the messages
// its vertices sent this superstep, bucketed by destination shard, and
// its slice of the superstep's accumulators. Buckets preserve program
// order, so concatenating them across source shards reproduces the
// sequential send stream per destination.
type shardState struct {
	shardOf  []int32  // vertex -> destination shard, shared read-only
	out      []bucket // indexed by destination shard
	ctx      Context  // reused per superstep: Compute takes *Context, which must not re-escape per call
	sent     int64
	active   int64
	updates  int
	maxDelta float64

	// Combiner scratch of the passes this shard runs as a receiver — the
	// merge pass's fold and the pull kernels' sweeps, one at a time: which
	// receiver a sender machine was last seen at, and the slot it claimed
	// there. One entry per machine.
	stamp []int32
	slot  []int32

	// pullAcc is the combined PullSum kernel's per-slot partial sums in
	// first-claim order.
	pullAcc []float64

	// Out-of-core state (nil on in-core runs, see ooc.go): streamed
	// edge blocks and the shard's bucket spill.
	edgeOut *edgeStream
	edgeIn  *edgeStream
	spill   *bucketSpill
}

// delivery is one destination shard's merge-pass accounting. receivers
// (distinct vertices delivered to) is tallied only by the pull-path
// counting closures; the push merge pass leaves it zero.
type delivery struct{ delivered, cross, receivers int64 }

// machineID is a sender machine as the merge pass records it beside
// each raw message; two bytes bound what a message costs in scratch.
type machineID = uint16

// maxMachines is the largest cluster a machineID tells apart.
const maxMachines = 1 << 16

// arena is the message plane — every buffer whose size follows a
// superstep's message count rather than the vertex count. A run leases
// it from its pool (par.Lease) and truncates it instead of reallocating:
// on a persistent pool, such as a graphserve admission slot's, the next
// run finds the buffers grown to the largest superstep the pool has run,
// and nothing retains them once the pool sits idle. What outlives a run —
// Output.Values, IterStats, checkpoint copies — is never arena memory.
type arena struct {
	buckets []bucket           // send buckets, one row of plan.Count() per source shard
	senders [][]graph.VertexID // per shard, the vertices that sent this superstep, in order

	// The twin inbox value arenas: vertex v's messages for the current
	// superstep are inVals[inStart[v] : inStart[v]+inLen[v]]; the merge
	// pass writes the next superstep's into nextVals and deliver swaps.
	inVals, nextVals []float64

	mach    []machineID        // sender machine per raw message of the superstep being merged
	recv    [][]graph.VertexID // per merge shard, the destinations its fold visits
	fronts  [2]graph.Frontier  // the direction policy's sender sets
	touched []graph.VertexID   // countSeq's receivers to reset
}

type runtime struct {
	cfg     Config
	cluster *sim.Cluster
	pool    *par.Pool
	*arena                // the leased message plane
	plan    par.Plan      // vertex-range shards, edge-balanced
	shards  []*shardState // one per plan shard
	shardOf []int32       // vertex -> shard, the send path's O(1) router

	values []float64
	halted []bool
	owner  []int32 // vertex -> machine

	// CSR-style superstep inboxes: vertex v's messages for the current
	// superstep are the arena's inVals[inStart[v] : inStart[v]+inLen[v]].
	// The next superstep's inbox is laid out in the merge pass from
	// per-shard message counts and written into the twin arena; deliver()
	// swaps the two triples, so no per-vertex slice is ever allocated or
	// nil-ed. Arena indices are int32 (like graph offsets): a synthetic
	// superstep's raw message count stays far below 2^31.
	inStart   []int32
	inLen     []int32
	nextStart []int32
	nextLen   []int32

	// Merge-phase scratch, reused across supersteps.
	shardBase []int32    // arena base offset per destination shard
	merged    []delivery // merge results, folded in shard order
	costs     []sim.StepCost

	// The two phase bodies, built once: passing fresh closures to
	// ForEach every superstep would heap-allocate them each time.
	computeFn func(i int)
	mergeFn   func(i int)

	superstep int
	updates   int
	maxDelta  float64

	// Per-superstep accounting. Totals are charged as cluster averages
	// times the profile's imbalance factor: at paper scale, hash
	// placement distributes load near-uniformly, and charging the tiny
	// synthetic per-machine counts directly would make the straggler a
	// granularity artifact rather than a property of the system.
	sentTotal      float64 // raw messages produced (CPU at senders)
	activeTotal    float64
	deliveredTotal float64 // post-combine messages delivered
	crossTotal     float64 // post-combine messages crossing machines

	totalMsgs       float64
	lastStepSeconds float64

	// Direction-optimization state (see pull.go). frontier holds the
	// senders of the last completed superstep; fvals snapshots their
	// outgoing message values for the pull sweep; arenaFresh records
	// whether the inbox arena actually holds the pending superstep's
	// messages (false after a pull superstep, which bypasses it).
	spec         PullSpec
	trackSenders bool
	frontier     *graph.Frontier
	nextFront    *graph.Frontier
	fvals        []float64
	totalMass    int64 // total push mass: out-edges, plus in-edges under the all-neighbors shape
	arenaFresh   bool
	prevRaw      int     // raw messages sent by the previous superstep (checkpoint sizing)
	prD, prC     float64 // PullSum delivered/cross per superstep, cached from superstep 0
	snapFn       func(i int)
	pullFn       func(i int)
	countFn      func(i int)
	countSeq     func() delivery
	// countMask is the sender-side counting scratch: per-receiver machine
	// bitmasks (the list of receivers to reset is the arena's touched).
	countMask []uint64
	// recvPrev is the distinct-receiver count of the current frontier's
	// pending messages — the next monotone pull superstep's active
	// count. Set by the min-kind counting passes; consulted only while
	// arenaFresh is false (after a push the arena itself is counted).
	recvPrev int

	// Fault-tolerance state (Config.CheckpointEvery > 0): the latest
	// superstep checkpoint, accumulated recovery costs, and the replay
	// window re-executed after a rollback.
	ckpt      *checkpoint
	recovery  engine.RecoveryCosts
	replaying bool
	replayTo  int // last superstep index being replayed

	// Memory-governor state (Config.Governor enabled): the run's
	// budget lease and, under hard pressure, the out-of-core machinery.
	lease *govern.Lease
	oc    *oocState
}

// checkpoint is a superstep-entry snapshot: the vertex-value plane,
// halted flags, the pending inbox arena triple, and the aggregate
// counters — everything the remaining supersteps depend on. It is
// taken at the top of a superstep, before compute, so restoring it and
// re-running reproduces the exact sequential execution. The buffers
// are reused across snapshots (one live checkpoint at a time, like
// Giraph's rotating checkpoint directory).
type checkpoint struct {
	superstep int
	totalMsgs float64
	iterStats int // len(Output.IterStats) at snapshot time
	values    []float64
	halted    []bool
	inVals    []float64
	inStart   []int32
	inLen     []int32

	// Direction-optimization state: when the previous superstep pulled,
	// the pending messages exist only as the sender frontier, so the
	// checkpoint snapshots that instead of the (stale) arena.
	arenaFresh bool
	frontier   []graph.VertexID
	prevRaw    int
	recvPrev   int
}

// restartStartupFraction scales the profile's job-startup cost into
// the failure-detection + partition-rescheduling overhead a recovery
// pays before reloading the checkpoint.
const restartStartupFraction = 0.5

// Run executes the configured program on the cluster, charging costs as
// it goes. It returns the output and the first failure encountered
// (OOM while buffering messages, or TO), with the output reflecting
// progress up to the failure.
func Run(cluster *sim.Cluster, cfg Config) (*Output, error) {
	if cfg.MaxSupersteps <= 0 {
		cfg.MaxSupersteps = DefaultMaxSupersteps
	}
	if cfg.Scale <= 0 {
		cfg.Scale = cfg.Graph.ScaleFactor()
	}
	if cfg.TimeDilation < 1 {
		cfg.TimeDilation = 1
	}
	if cfg.M > maxMachines {
		return &Output{}, fmt.Errorf("bsp: %d machines, the runtime tells at most %d apart", cfg.M, maxMachines)
	}
	n := cfg.Graph.NumVertices()
	pool, release := par.Use(cfg.Pool, cfg.Shards)
	defer release()
	rt := &runtime{
		cfg:     cfg,
		cluster: cluster,
		pool:    pool,
		// Leased ahead of the run's first large allocation: a collection
		// that allocation starts can finish — the allocating goroutine
		// assists it — before the next statement runs, and would take an
		// arena nothing referred to yet.
		arena:     par.Lease[arena](pool),
		plan:      cfg.ShardPlan.Cut(cfg.Graph, pool.Workers()),
		values:    make([]float64, n),
		halted:    make([]bool, n),
		inStart:   make([]int32, n),
		inLen:     make([]int32, n),
		nextStart: make([]int32, n),
		nextLen:   make([]int32, n),
		owner:     make([]int32, n),
		costs:     make([]sim.StepCost, cfg.M),
	}
	rt.shardOf = rt.plan.FillShardOf(make([]int32, n))
	rt.shardBase = make([]int32, rt.plan.Count())
	rt.merged = make([]delivery, rt.plan.Count())
	for i := 0; i < rt.plan.Count(); i++ {
		ss := &shardState{shardOf: rt.shardOf, stamp: make([]int32, cfg.M), slot: make([]int32, cfg.M)}
		ss.ctx = Context{ss: ss, rt: rt}
		rt.shards = append(rt.shards, ss)
	}
	rt.shapeArena()

	rt.computeFn = func(i int) {
		ss := rt.shards[i]
		ss.sent, ss.active, ss.updates, ss.maxDelta = 0, 0, 0, 0
		senders := rt.senders[i][:0]
		track := rt.trackSenders
		for d := range ss.out {
			b := &ss.out[d]
			b.dst, b.srcM, b.val = b.dst[:0], b.srcM[:0], b.val[:0]
		}
		if ss.spill != nil {
			ss.spill.reset()
		}
		oc := rt.oc
		s := rt.plan.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			start, mlen := rt.inStart[v], rt.inLen[v]
			if rt.halted[v] && mlen == 0 {
				continue
			}
			// The one difference between the tiers: a vertex's pending
			// messages come from the resident arena, or out of core from
			// the shard's streamed inbox region.
			var msgs []float64
			if oc != nil {
				msgs = oc.inboxMsgs(i, start, mlen)
			} else {
				msgs = rt.inVals[start : start+mlen]
			}
			rt.halted[v] = false
			ss.active++
			ss.ctx.v = graph.VertexID(v)
			ss.ctx.srcM = rt.owner[v]
			before := ss.sent
			rt.cfg.Program.Compute(&ss.ctx, msgs)
			if track && ss.sent > before {
				senders = append(senders, graph.VertexID(v))
			}
		}
		rt.senders[i] = senders
	}
	rt.mergeFn = func(i int) {
		// Count sub-pass: tally the raw messages bound for each of this
		// destination shard's vertices; nextLen doubles as the counter
		// array (each shard touches only its own vertex range). recv
		// lists the destinations as their first message turns up, for the
		// fold: a sparse superstep must not pay a third sweep of the range.
		s := rt.plan.Shard(i)
		cnt := rt.nextLen
		for v := s.Lo; v < s.Hi; v++ {
			cnt[v] = 0
		}
		recv := rt.recv[i][:0]
		for _, src := range rt.shards {
			for k := 0; ; k++ {
				b, last, ok := src.segment(i, s.Index, k)
				if !ok {
					return
				}
				for _, w := range b.dst {
					if cnt[w] == 0 {
						recv = append(recv, w)
					}
					cnt[w]++
				}
				if last {
					break
				}
			}
		}
		rt.recv[i] = recv
		// Layout sub-pass: finalize CSR offsets from the counts within
		// the shard's pre-assigned arena region, resetting nextLen to
		// act as the deposit write cursor.
		base := rt.shardBase[i]
		run := base
		for v := s.Lo; v < s.Hi; v++ {
			rt.nextStart[v] = run
			run += cnt[v]
			cnt[v] = 0
		}
		// The shard's region is its slice of the resident arena, or out
		// of core a bounded buffer sealed to a segment file below; mach
		// is the sender-machine scratch beside it, nil when this
		// superstep does not combine.
		combined := rt.combining(rt.superstep)
		var region []float64
		var mach []machineID
		if rt.oc != nil {
			if region, mach = rt.oc.region(i, int(run-base), combined); region == nil && run != base {
				return
			}
		} else if region = rt.nextVals[base:run]; combined {
			mach = rt.mach[base:run]
		}
		// Deposit sub-pass: replay the streams in source-shard order,
		// raw, into the region.
		d := delivery{delivered: int64(run - base)}
		for _, src := range rt.shards {
			for k := 0; ; k++ {
				b, last, ok := src.segment(i, s.Index, k)
				if !ok {
					return
				}
				for j, dst := range b.dst {
					rt.place(region, mach, base, b.srcM[j], dst, b.val[j])
					if !combined && b.srcM[j] != rt.owner[dst] {
						d.cross++
					}
				}
				if last {
					break
				}
			}
		}
		// Fold sub-pass: the sender-side combiner, per destination.
		if combined {
			d = rt.fold(rt.shards[i], recv, region, mach, base)
		}
		rt.merged[i] = d
		if rt.oc != nil {
			rt.oc.writeRegion(i, region, base)
		}
	}
	out := &Output{}
	// The governor decides the execution mode before planes grow: it
	// may force push (shedding pull scratch) or set up the out-of-core
	// streams the phase bodies branch on. It must run before
	// setupDirection.
	if err := rt.setupGovernor(); err != nil {
		return out, err
	}
	defer rt.finishGovernor(out)
	for v := 0; v < n; v++ {
		rt.values[v] = cfg.Program.Init(graph.VertexID(v))
		rt.owner[v] = int32(cfg.MachineOf(graph.VertexID(v)))
	}
	rt.setupDirection()

	rt.superstep = 0
	rt.arenaFresh = true
	for rt.superstep < cfg.MaxSupersteps {
		if cfg.CheckpointEvery > 0 && rt.superstep%cfg.CheckpointEvery == 0 &&
			(rt.ckpt == nil || rt.ckpt.superstep != rt.superstep) {
			if err := rt.takeCheckpoint(len(out.IterStats)); err != nil {
				rt.fill(out)
				return out, err
			}
		}
		pulled := rt.pullThisStep()
		rt.updates, rt.maxDelta = 0, 0
		rt.sentTotal, rt.deliveredTotal, rt.crossTotal = 0, 0, 0
		var active int
		if pulled {
			active = rt.pullPhase()
		} else {
			if !rt.arenaFresh {
				rt.materializeInbox()
			}
			active = rt.computePhase()
		}
		rt.activeTotal = float64(active)
		if rt.oc != nil {
			if oerr := rt.oc.firstErr(); oerr != nil {
				rt.fill(out)
				return out, wrapBudget(oerr)
			}
		}
		err := rt.chargeSuperstep()
		if rt.replaying {
			// lastStepSeconds is per paper-scale superstep; the wall time
			// actually re-spent is the dilated charge.
			rt.recovery.ReplaySeconds += rt.lastStepSeconds * rt.cfg.TimeDilation
			if rt.superstep >= rt.replayTo {
				rt.replaying = false
			}
		}
		if cfg.RecordIterStats {
			out.IterStats = append(out.IterStats, engine.IterStat{
				Iteration: rt.superstep,
				Active:    active,
				Updates:   rt.updates,
				Seconds:   rt.lastStepSeconds,
			})
		}
		if err == nil {
			err = rt.cluster.Boundary(rt.superstep)
		}
		if err != nil {
			if rt.canRecover(err) {
				if rerr := rt.rollback(out); rerr != nil {
					rt.fill(out)
					return out, rerr
				}
				continue
			}
			rt.fill(out)
			return out, err
		}
		if rt.shouldStop(active) {
			break
		}
		rt.prevRaw = int(rt.sentTotal)
		if pulled {
			rt.arenaFresh = false
		} else {
			rt.finishPush()
			rt.deliver()
			rt.arenaFresh = true
		}
		rt.superstep++
	}
	rt.fill(out)
	return out, nil
}

func (rt *runtime) fill(out *Output) {
	out.Values = rt.values
	out.Supersteps = rt.superstep
	out.Messages = rt.totalMsgs
	out.Recovery = rt.recovery
}

// takeCheckpoint snapshots the superstep-entry state and charges the
// modeled checkpoint write: the state plane goes to disk with 3-way
// replication, two replicas crossing the network — the same cost shape
// as rdd.Context.Checkpoint. The superstep-0 checkpoint is free: the
// freshly loaded input is its own recovery point.
func (rt *runtime) takeCheckpoint(iterLen int) error {
	if rt.ckpt == nil {
		rt.ckpt = &checkpoint{}
	}
	ck := rt.ckpt
	ck.superstep = rt.superstep
	ck.totalMsgs = rt.totalMsgs
	ck.iterStats = iterLen
	ck.values = append(ck.values[:0], rt.values...)
	ck.halted = append(ck.halted[:0], rt.halted...)
	ck.arenaFresh = rt.arenaFresh
	ck.prevRaw = rt.prevRaw
	ck.recvPrev = rt.recvPrev
	if rt.arenaFresh {
		ck.inVals = append(ck.inVals[:0], rt.inVals...)
		ck.inStart = append(ck.inStart[:0], rt.inStart...)
		ck.inLen = append(ck.inLen[:0], rt.inLen...)
		if rt.oc != nil {
			// Spilled runs keep the inbox values in segment files;
			// checkpoint copies them next to the resident planes.
			if err := rt.oc.saveInbox(); err != nil {
				return err
			}
		}
	} else {
		// The previous superstep pulled: the pending messages exist only
		// as the sender frontier, which is far smaller than the arena it
		// stands for. The modeled write still charges the full message
		// plane (prevRaw) — a real system checkpoints the logical state,
		// not our representation trick.
		ck.inVals, ck.inStart, ck.inLen = ck.inVals[:0], ck.inStart[:0], ck.inLen[:0]
	}
	if rt.trackSenders {
		ck.frontier = append(ck.frontier[:0], rt.frontier.Members()...)
	}
	if rt.superstep == 0 {
		return nil
	}
	before := rt.cluster.Clock()
	per := rt.stateBytes(ck.prevRaw) / float64(rt.cfg.M)
	err := rt.cluster.UniformStep(sim.StepCost{
		DiskWriteBytes: per * 3,
		NetSendBytes:   per * 2,
		NetRecvBytes:   per * 2,
	})
	rt.recovery.CheckpointSeconds += rt.cluster.Clock() - before
	return err
}

// stateBytes is the paper-scale size of a checkpoint holding an
// inboxLen-message pending inbox: the vertex-value plane (8 B) plus
// halted flags (1 B) per vertex, message values (8 B), and the CSR
// offset plane (8 B per vertex).
func (rt *runtime) stateBytes(inboxLen int) float64 {
	n := float64(rt.cfg.Graph.NumVertices())
	return (n*9 + n*8 + float64(inboxLen)*8) * rt.cfg.Scale
}

// canRecover reports whether err is survivable here: recovery needs
// checkpointing on, a checkpoint in hand, and a recoverable failure.
func (rt *runtime) canRecover(err error) bool {
	return rt.cfg.CheckpointEvery > 0 && rt.ckpt != nil && sim.IsRecoverable(err)
}

// rollback restores the last checkpoint and arms replay: the failed
// machine's partitions are rescheduled (a fraction of job startup),
// every machine reads its checkpoint slice back from disk, and
// execution re-enters the checkpointed superstep. Recorded
// per-iteration stats roll back too, so replayed supersteps do not
// appear twice.
func (rt *runtime) rollback(out *Output) error {
	ck := rt.ckpt
	rt.recovery.Failures++
	before := rt.cluster.Clock()
	rerr := rt.cluster.Advance(rt.cfg.Profile.StartupSeconds(rt.cfg.M) * restartStartupFraction)
	if rerr == nil {
		rerr = rt.cluster.UniformStep(sim.StepCost{
			DiskReadBytes: rt.stateBytes(ck.prevRaw) / float64(rt.cfg.M),
		})
	}
	rt.recovery.RestartSeconds += rt.cluster.Clock() - before
	if rerr != nil {
		return rerr
	}
	copy(rt.values, ck.values)
	copy(rt.halted, ck.halted)
	if ck.arenaFresh {
		rt.inVals = append(rt.inVals[:0], ck.inVals...)
		copy(rt.inStart, ck.inStart)
		copy(rt.inLen, ck.inLen)
	}
	if rt.oc != nil {
		// Restore the checkpointed inbox segments and invalidate every
		// spill file written since; replay regenerates them.
		if rerr := rt.oc.restoreInbox(); rerr != nil {
			return rerr
		}
	}
	rt.arenaFresh = ck.arenaFresh
	rt.prevRaw = ck.prevRaw
	rt.recvPrev = ck.recvPrev
	if rt.trackSenders {
		rt.frontier.Clear()
		for _, u := range ck.frontier {
			rt.frontier.Add(u, rt.sendMass(u, ck.superstep-1))
		}
	}
	if rt.cfg.RecordIterStats {
		out.IterStats = out.IterStats[:ck.iterStats]
	}
	rt.replayTo = rt.superstep
	rt.replaying = true
	rt.superstep = ck.superstep
	rt.totalMsgs = ck.totalMsgs
	return nil
}

// computePhase executes Compute for the active vertices and returns
// how many ran. It runs in two sharded dispatches — the only two
// barriers a superstep pays: compute/send, where each vertex-range
// shard runs its vertices in order and buffers sends by destination
// shard; and a fused merge, where each destination shard counts its
// vertices' incoming messages, lays its slice of the arena out in CSR
// form, replays the buffers in source-shard order into it, and folds
// each destination's run through the sender-side combiner. The arena
// regions the merge shards write into are assigned between the two
// dispatches from the already-known bucket lengths — an O(shards²) scan
// on the coordinator, no per-vertex pass.
// Per-destination message order equals the sequential order, and every
// accumulator is either an integer-valued sum or a max, so outputs and
// modeled costs are bit-identical for any shard count.
func (rt *runtime) computePhase() int {
	// Compute/send pass: vertex-range shards, program order per shard.
	rt.pool.ForEach(rt.plan.Count(), rt.computeFn)

	// Arena layout: each destination shard's region of the value arena
	// is the sum of the bucket lengths bound for it — including, out of
	// core, the messages already spilled to chunk files; the arena grows
	// (retaining capacity) to this superstep's raw send count. Spilled
	// runs skip the arena: each merge shard fills a region buffer and
	// seals it to a segment file instead.
	total := 0
	for d := range rt.shardBase {
		rt.shardBase[d] = int32(total)
		for _, ss := range rt.shards {
			total += len(ss.out[d].dst)
			if ss.spill != nil {
				total += ss.spill.counts[d]
			}
		}
	}
	if rt.oc == nil {
		rt.nextVals = par.Grow(rt.nextVals, total)
		if rt.combining(rt.superstep) {
			rt.mach = par.Grow(rt.mach, total)
		}
	}

	// Fused count+layout+deposit+fold pass: destination shards,
	// source-shard order within each.
	rt.pool.ForEach(rt.plan.Count(), rt.mergeFn)

	active := rt.foldShards()
	rt.foldDeliveries()
	return active
}

// foldShards folds the shards' superstep accumulators into the runtime
// totals in shard order and returns how many vertices ran. Every phase
// — push compute, PullSum sweep, min-kind sweep — ends with it.
func (rt *runtime) foldShards() int {
	active := 0
	for _, ss := range rt.shards {
		active += int(ss.active)
		rt.sentTotal += float64(ss.sent)
		rt.totalMsgs += float64(ss.sent)
		rt.updates += ss.updates
		if ss.maxDelta > rt.maxDelta {
			rt.maxDelta = ss.maxDelta
		}
	}
	return active
}

// foldDeliveries folds the per-destination-shard delivery accounting
// (merge pass or receiver-side count) into the runtime totals and
// returns the distinct-receiver tally.
func (rt *runtime) foldDeliveries() (receivers int64) {
	for _, d := range rt.merged {
		rt.deliveredTotal += float64(d.delivered)
		rt.crossTotal += float64(d.cross)
		receivers += d.receivers
	}
	return receivers
}

// segment returns piece k of the message stream this shard sent to
// destination shard d this superstep: its spilled chunks in flush order
// (read into merge shard mergeIdx's scratch; none on in-core runs), then
// the in-memory bucket, which is the last piece. Concatenated over the
// source shards in order, the pieces are the exact sequential send
// stream. ok is false when a chunk fails to read or verify.
func (ss *shardState) segment(mergeIdx, d, k int) (b bucket, last, ok bool) {
	if ss.spill != nil && k < len(ss.spill.chunks[d]) {
		b.dst, b.srcM, b.val, ok = ss.spill.readChunk(mergeIdx, ss.spill.chunks[d][k])
		return b, false, ok
	}
	return ss.out[d], true, true
}

// send buffers one message in the sending shard, bucketed by the
// destination's shard — one array load on the precomputed router, not a
// division or binary search per message.
func (ss *shardState) send(srcM int32, dst graph.VertexID, val float64) {
	ss.sent++
	b := &ss.out[ss.shardOf[dst]]
	b.dst = append(b.dst, dst)
	b.srcM = append(b.srcM, srcM)
	b.val = append(b.val, val)
	if ss.spill != nil {
		ss.spill.noteSend(ss)
	}
}

// combining reports whether messages sent in superstep s go through the
// sender-side combiner.
func (rt *runtime) combining(s int) bool {
	return rt.cfg.Combine != nil && s >= rt.cfg.CombineFrom
}

// place writes one raw message at dst's next free position of region —
// the arena values from global index base on: a merge shard's slice of
// the resident arena, its out-of-core region buffer, or the whole arena
// (base 0) for the pull-to-push materialization — and, when the
// superstep combines, the sender's machine beside it. nextLen is the
// write cursor; only the goroutine owning dst's shard places for it.
func (rt *runtime) place(region []float64, mach []machineID, base, srcM int32, dst graph.VertexID, val float64) {
	at := rt.nextStart[dst] + rt.nextLen[dst] - base
	rt.nextLen[dst]++
	region[at] = val
	if mach != nil {
		mach[at] = machineID(srcM)
	}
}

// fold runs the sender-side combiner over the placed messages of the
// destinations in recv, in place: a destination's run is contiguous and in
// the sequential send order, so walking it left to right claims one slot
// per sender machine in first-appearance order and combines every later
// message of that machine into its slot in stream order — the slot
// order and the float operation order a combiner keyed by (machine,
// destination) produces, from one stamp/slot entry per machine (ss's,
// the shard running the pass) instead of one per machine and vertex.
// nextLen ends as each destination's slot count; the returned delivery
// counts the slots and those whose sender machine is not the owner's.
func (rt *runtime) fold(ss *shardState, recv []graph.VertexID, region []float64, mach []machineID, base int32) (d delivery) {
	for m := range ss.stamp {
		ss.stamp[m] = -1
	}
	combine := rt.cfg.Combine
	for _, v := range recv {
		at, n := int(rt.nextStart[v]-base), int(rt.nextLen[v])
		slots := int32(0)
		for j := at; j < at+n; j++ {
			m := mach[j]
			if ss.stamp[m] == int32(v) {
				k := at + int(ss.slot[m])
				region[k] = combine(region[k], region[j])
				continue
			}
			ss.stamp[m], ss.slot[m] = int32(v), slots
			region[at+int(slots)] = region[j]
			slots++
			if int32(m) != rt.owner[v] {
				d.cross++
			}
		}
		rt.nextLen[v] = slots
		d.delivered += int64(slots)
	}
	return d
}

// shapeArena sizes the leased message plane's shard tables for the run.
// Nothing a previous run left in the arena is read: every compute pass
// starts by truncating its shard's buckets and sender list, every merge
// lays the value arena out afresh.
func (rt *runtime) shapeArena() {
	nsh := rt.plan.Count()
	rt.buckets = par.Grow(rt.buckets, nsh*nsh)
	rt.senders = par.Grow(rt.senders, nsh)
	rt.recv = par.Grow(rt.recv, nsh)
	for i, ss := range rt.shards {
		ss.out = rt.buckets[i*nsh : (i+1)*nsh]
	}
	// The merge pass writes nextVals first; a run that then pulls never
	// grows the twin, so the larger one goes there.
	rt.inVals, rt.nextVals = rt.inVals[:0], rt.nextVals[:0]
	if cap(rt.inVals) > cap(rt.nextVals) {
		rt.inVals, rt.nextVals = rt.nextVals, rt.inVals
	}
}

// chargeSuperstep charges this superstep's modeled costs: per-machine
// CPU for scans and message handling (inflated under memory pressure),
// network for cross-machine traffic, memory for receive buffers, plus
// the system's fixed coordination cost. Per-machine shares are the
// cluster average times the profile's imbalance factor.
func (rt *runtime) chargeSuperstep() error {
	p := rt.cfg.Profile
	cores := rt.cluster.Config().Cores
	capacity := rt.cluster.Config().MemoryBytes
	mf := float64(rt.cfg.M)
	imb := p.Imbalance
	if imb < 1 {
		imb = 1
	}

	// Receive buffers live for the duration of the superstep.
	bufPer := int64(rt.deliveredTotal / mf * imb * p.MsgMemBytes * rt.cfg.Scale)
	var bufErr error
	for m := 0; m < rt.cfg.M; m++ {
		if err := rt.cluster.Alloc(m, bufPer); err != nil && bufErr == nil {
			bufErr = err
		}
	}

	scanned := rt.activeTotal
	if rt.cfg.ScanAll {
		scanned = float64(rt.cfg.Graph.NumVertices())
	}
	// Dilation stretches only the per-iteration fixed work (vertex
	// scans, coordination): one synthetic superstep stands for dil
	// paper supersteps of overhead. Message volume is not dilated —
	// across a whole traversal it is O(|E|·updates), independent of
	// the diameter, so the synthetic totals already reflect paper
	// scale. This is Table 6's model: high-diameter runs are dominated
	// by the per-iteration floor, not by message traffic.
	dil := rt.cfg.TimeDilation
	costs := rt.costs // reused across supersteps; every field written below
	for m := 0; m < rt.cfg.M; m++ {
		compute := p.ScanSeconds(scanned/mf*imb*rt.cfg.Scale, cores)*dil +
			p.MsgSeconds((rt.sentTotal+rt.deliveredTotal)/mf*imb*rt.cfg.Scale, cores)
		compute *= p.PressureFactor(rt.cluster.Machine(m).MemUsed(), capacity)
		netBytes := rt.crossTotal / mf * imb * p.MsgBytes * rt.cfg.Scale
		costs[m] = sim.StepCost{
			ComputeSeconds: compute,
			NetSendBytes:   netBytes,
			NetRecvBytes:   netBytes,
		}
	}
	before := rt.cluster.Clock()
	err := rt.cluster.RunStep(costs)
	if err == nil && p.SuperstepFixed > 0 {
		err = rt.cluster.Advance(p.SuperstepFixed * dil)
	}
	rt.lastStepSeconds = (rt.cluster.Clock() - before) / dil
	rt.cluster.FreeAll(bufPer)
	if bufErr != nil {
		return bufErr
	}
	return err
}

// deliver publishes the merged arena as the next superstep's inbox by
// swapping the two arena triples — O(1), no per-vertex slice headers to
// nil. The swapped-out arena keeps its capacity and is rebuilt wholesale
// by the next merge (the count pass zeroes every length, the deposit
// pass rewrites every offset), so stale contents are never observed.
func (rt *runtime) deliver() {
	rt.inVals, rt.nextVals = rt.nextVals, rt.inVals
	rt.inStart, rt.nextStart = rt.nextStart, rt.inStart
	rt.inLen, rt.nextLen = rt.nextLen, rt.inLen
	if rt.oc != nil {
		rt.oc.flip()
	}
}

func (rt *runtime) shouldStop(active int) bool {
	if active == 0 && rt.deliveredTotal == 0 {
		return true // global quiescence
	}
	if rt.superstep == 0 {
		return false
	}
	if rt.cfg.FixedSupersteps > 0 && rt.superstep >= rt.cfg.FixedSupersteps {
		return true
	}
	if rt.cfg.StopDeltaBelow > 0 && rt.maxDelta < rt.cfg.StopDeltaBelow {
		return true
	}
	return false
}
