package bsp

import (
	"math"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/par"
)

// Direction-optimizing execution for the BSP runtime.
//
// A push superstep routes every message through the per-shard send
// buckets and the merge pass — the right shape when few vertices send.
// When the sender frontier is dense, the same superstep can instead be
// computed as a pull sweep: every vertex scans its in-edges for members
// of the previous superstep's sender set and folds their (snapshotted)
// message values directly, bypassing the buckets, the arena layout, and
// the deposit pass entirely. This is Beamer's direction-optimizing
// traversal lifted from BFS to the three message-monoid programs the
// runtime ships: min-propagation over out-edges (SSSP), min-propagation
// over all edges (WCC/HashMin), and rank-sum (PageRank).
//
// The contract is strict bit-identity: outputs, per-superstep IterStats,
// and every modeled cost (sent, delivered, cross-machine, active counts
// — hence charged seconds and network bytes) are identical under
// DirectionPush, DirectionPull, and DirectionAuto at every shard count.
// The direction changes only host wall-clock time. The kernels below
// therefore replicate the push path's accounting exactly, including the
// sender-side combiner's distinct-(machine, receiver) delivery counts
// and PageRank's float summation order.

// PullKind classifies a program's pull kernel.
type PullKind int

const (
	// PullNone marks a program with no pull kernel; it always pushes.
	PullNone PullKind = iota
	// PullSum is the PageRank shape: every vertex is active every
	// superstep, messages are value/out-degree along out-edges, and the
	// receiver folds them with +.
	PullSum
	// PullMinOut is the SSSP shape: changed vertices send value+Delta
	// along out-edges, receivers min-fold against their own value, and
	// every vertex votes to halt each superstep.
	PullMinOut
	// PullMinAll is the WCC/HashMin shape: like PullMinOut but changed
	// vertices send along out- and (from superstep 1, when the run uses
	// reverse-edge discovery) in-edges, and every active vertex sends
	// once more at superstep 1 even when unchanged.
	PullMinAll
)

// PullSpec describes the pull kernel of a program.
type PullSpec struct {
	Kind PullKind
	// Damping is the PullSum damping factor (PageRank's δ).
	Damping float64
	// Delta is added to a sender's value to form its outgoing message
	// (SSSP sends value+1; WCC sends the value itself).
	Delta float64
	// Monotone promises that a vertex's value, once finite, is never
	// improved by a later message — true for hop-counting wavefronts
	// like SSSP, where a vertex settles at its first finite value. A
	// monotone pull sweep skips every settled vertex outright: its
	// in-edge scan cannot change anything, and its contribution to the
	// superstep's active count ("received at least one message" — every
	// vertex has voted to halt from superstep 0 on) is recovered from
	// the counting pass's distinct-receiver tally instead. This is the
	// bottom-up half of Beamer's heuristic: across a whole run each
	// vertex's in-edges are scanned roughly once — until it settles —
	// rather than once per dense superstep.
	Monotone bool
}

// directionProbe counts direction-machinery events for tests guarding
// against vacuous coverage. Settable only from within the package.
type directionProbe struct {
	pulled       int // pull supersteps executed
	materialized int // pull-to-push inbox rebuilds with pending messages
}

// PullProgram is implemented by programs whose supersteps can be
// computed by a pull sweep. The spec is a promise that Compute's
// superstep-1-onward behaviour is exactly the declared kind's kernel;
// the runtime checks nothing at runtime and bit-identity is asserted by
// the enginetest direction suites instead.
type PullProgram interface {
	Program
	PullSpec() PullSpec
}

// PullSpec declares PageRank's rank-sum pull kernel.
func (p *PageRankProgram) PullSpec() PullSpec { return PullSpec{Kind: PullSum, Damping: p.Damping} }

// PullSpec declares HashMin's all-neighbors min pull kernel.
func (WCCProgram) PullSpec() PullSpec { return PullSpec{Kind: PullMinAll} }

// PullSpec declares SSSP's out-edge min pull kernel. The kernel is
// monotone: messages are hop counts (value+1), so the first finite
// value a vertex adopts is its BFS level and no later message beats it.
func (p *SSSPProgram) PullSpec() PullSpec {
	return PullSpec{Kind: PullMinOut, Delta: 1, Monotone: true}
}

// setupDirection resolves the run's pull spec and allocates the
// direction-optimization state. It runs once, after vertex init. A
// forced-push run skips everything: no frontier tracking, no scratch.
func (rt *runtime) setupDirection() {
	if rt.cfg.Direction == engine.DirectionPush {
		return
	}
	pp, ok := rt.cfg.Program.(PullProgram)
	if !ok {
		return
	}
	spec := pp.PullSpec()
	if spec.Kind == PullNone {
		return
	}
	// PullSum caches delivered/cross from superstep 0's real push, which
	// is only valid when superstep 0 combines the same way later
	// supersteps do.
	if spec.Kind == PullSum && rt.cfg.Combine != nil && rt.cfg.CombineFrom != 0 {
		return
	}
	rt.spec = spec
	n := rt.cfg.Graph.NumVertices()
	rt.fvals = make([]float64, n)
	rt.totalMass = int64(rt.cfg.Graph.NumEdges())
	if rt.allShape(1) {
		rt.totalMass *= 2 // the in-CSR mirrors every out-edge
	}
	if spec.Kind == PullSum {
		rt.buildSumKernel()
		return
	}
	rt.trackSenders = true
	rt.frontier, rt.nextFront = &rt.fronts[0], &rt.fronts[1]
	rt.frontier.Resize(n)
	rt.nextFront.Resize(n)
	rt.buildMinKernel()
}

// allShape reports whether messages sent in superstep s use the
// all-neighbors shape — out-edges plus in-edges — rather than out-edges
// only. Mirrors Context.SendToAllNeighbors' gate.
func (rt *runtime) allShape(s int) bool {
	return rt.spec.Kind == PullMinAll && rt.cfg.UseInNeighbors && s >= 1
}

// sendMass is the number of messages v emits when it sends in
// superstep s — the frontier edge weight driving the density heuristic.
func (rt *runtime) sendMass(v graph.VertexID, s int) int {
	d := rt.cfg.Graph.OutDegree(v)
	if rt.allShape(s) {
		d += rt.cfg.Graph.InDegree(v)
	}
	return d
}

// pullThisStep decides the current superstep's direction. Superstep 0
// always pushes — the seeding supersteps have program-specific shapes
// (PageRank's degree division, SSSP's source-only send) that the pull
// kernels deliberately do not model. PullSum always pulls afterwards:
// its frontier is implicitly every vertex. The min kinds apply the
// Beamer heuristic with hysteresis derived from arenaFresh (false iff
// the previous superstep pulled): push→pull when the sender frontier's
// edge mass passes totalMass/FrontierAlpha, pull→push when it falls
// below totalMass/(FrontierAlpha·FrontierBeta). The wide band exists
// because a pulled superstep's sweep cost is near-flat in frontier
// size: once a run has gone dense enough to pull, flipping back only
// pays once the frontier has collapsed by another factor of Beta, not
// at the first sub-dense superstep.
func (rt *runtime) pullThisStep() bool {
	if rt.spec.Kind == PullNone || rt.superstep == 0 {
		return false
	}
	switch rt.cfg.Direction {
	case engine.DirectionPush:
		return false
	case engine.DirectionPull:
		return true
	}
	if rt.spec.Kind == PullSum {
		return true
	}
	if !rt.arenaFresh {
		return rt.frontier.Edges()*graph.FrontierAlpha*graph.FrontierBeta >= rt.totalMass
	}
	return rt.frontier.Dense(rt.totalMass)
}

// finishPush runs after a push superstep survives its boundary: PullSum
// captures the constant per-superstep delivery counts from superstep
// 0's real merge pass, and the min kinds fold the per-shard sender
// lists — shard order, hence ascending vertex order — into the frontier
// the next superstep's direction decision and potential pull sweep use.
func (rt *runtime) finishPush() {
	if rt.spec.Kind == PullSum {
		if rt.superstep == 0 {
			rt.prD, rt.prC = rt.deliveredTotal, rt.crossTotal
		}
		return
	}
	if !rt.trackSenders {
		return
	}
	rt.frontier.Clear()
	s := rt.superstep
	for _, senders := range rt.senders {
		for _, u := range senders {
			rt.frontier.Add(u, rt.sendMass(u, s))
		}
	}
}

// pullPhase computes one superstep as a pull sweep, replicating
// computePhase's outputs and accounting bit for bit.
func (rt *runtime) pullPhase() int {
	if rt.cfg.probe != nil {
		rt.cfg.probe.pulled++
	}
	if rt.spec.Kind == PullSum {
		return rt.pullSumPhase()
	}
	return rt.pullMinPhase()
}

// pullSumPhase is the PageRank superstep as two sharded sweeps: snapshot
// every vertex's outgoing contribution value/out-degree (what push would
// have sent), then recompute every rank from the in-CSR. Delivered and
// cross-machine counts are structural constants — every superstep's
// message plane has the same shape — cached from superstep 0.
func (rt *runtime) pullSumPhase() int {
	rt.pool.ForEach(rt.plan.Count(), rt.snapFn)
	rt.pool.ForEach(rt.plan.Count(), rt.pullFn)
	rt.deliveredTotal = rt.prD
	rt.crossTotal = rt.prC
	return rt.foldShards()
}

// buildSumKernel builds the PullSum closures once. The sweep replicates
// the push path's float summation exactly: the merge pass deposits raw
// messages in ascending source order (shards are ascending vertex
// ranges replayed in order) and the combiner folds each machine's
// messages into the slot claimed at that machine's first message, so
// the receiver's inbox holds per-machine partial sums in first-
// appearance order, which Compute then sums left to right. The sweep
// reproduces that grouping with per-machine slots (the shard's
// stamp/slot pair and pullAcc) claimed in first-appearance order over
// the ascending in-neighbor scan. Without a combiner the inbox is the
// raw ascending message stream and a plain left fold matches.
func (rt *runtime) buildSumKernel() {
	g := rt.cfg.Graph
	combined := rt.cfg.Combine != nil
	if combined {
		for _, ss := range rt.shards {
			ss.pullAcc = make([]float64, rt.cfg.M)
		}
	}
	rt.snapFn = func(i int) {
		s := rt.plan.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			if od := g.OutDegree(graph.VertexID(v)); od > 0 {
				rt.fvals[v] = rt.values[v] / float64(od)
			}
		}
	}
	damp := rt.spec.Damping
	rt.pullFn = func(i int) {
		ss := rt.shards[i]
		ss.sent, ss.active, ss.updates, ss.maxDelta = 0, 0, 0, 0
		if combined {
			for m := range ss.stamp {
				ss.stamp[m] = -1
			}
		}
		s := rt.plan.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			ss.active++
			sum := 0.0
			if combined {
				tag := int32(v)
				nslots := int32(0)
				for _, u := range g.InNeighbors(graph.VertexID(v)) {
					m := rt.owner[u]
					if ss.stamp[m] != tag {
						ss.stamp[m] = tag
						ss.slot[m] = nslots
						ss.pullAcc[nslots] = rt.fvals[u]
						nslots++
						continue
					}
					ss.pullAcc[ss.slot[m]] += rt.fvals[u]
				}
				for k := int32(0); k < nslots; k++ {
					sum += ss.pullAcc[k]
				}
			} else {
				for _, u := range g.InNeighbors(graph.VertexID(v)) {
					sum += rt.fvals[u]
				}
			}
			next := damp + (1-damp)*sum
			d := next - rt.values[v]
			if d < 0 {
				d = -d
			}
			if d > ss.maxDelta {
				ss.maxDelta = d
			}
			if next != rt.values[v] {
				ss.updates++
				rt.values[v] = next
			}
			if od := g.OutDegree(graph.VertexID(v)); od > 0 {
				ss.sent += int64(od)
			}
		}
	}
}

// pullMinPhase is a WCC/SSSP superstep as a pull sweep: snapshot the
// frontier's outgoing message values, sweep every vertex scanning its
// incoming side for frontier members, then fold the new sender set and
// rerun a counting sweep for the delivery accounting the merge pass
// would have produced.
func (rt *runtime) pullMinPhase() int {
	delta := rt.spec.Delta
	for _, u := range rt.frontier.Members() {
		rt.fvals[u] = rt.values[u] + delta
	}
	// A monotone superstep's active count — vertices that received at
	// least one message, since every vertex has voted to halt since
	// superstep 0 — does not come from the sweep, which skips settled
	// vertices without looking at their incoming side. It is the
	// distinct-receiver tally of the frontier that sent: carried from
	// the previous pull superstep's counting pass, or counted off the
	// pending inbox arena when the previous superstep pushed.
	active := 0
	monotone := rt.spec.Monotone
	if monotone {
		if rt.arenaFresh {
			for _, l := range rt.inLen {
				if l > 0 {
					active++
				}
			}
		} else {
			active = rt.recvPrev
		}
	}
	rt.pool.ForEach(rt.plan.Count(), rt.pullFn)
	if swept := rt.foldShards(); !monotone {
		active = swept
	}
	rt.nextFront.Clear()
	s := rt.superstep
	for _, senders := range rt.senders {
		for _, u := range senders {
			rt.nextFront.Add(u, rt.sendMass(u, s))
		}
	}
	rt.frontier, rt.nextFront = rt.nextFront, rt.frontier
	// Two interchangeable counting strategies, same totals: the sharded
	// receiver-side scan touches every edge, the sequential sender-side
	// scan only the new frontier's. Pick by comparing the sender-side
	// work against the full scan's wall-clock share per executing core.
	var recv int64
	if rt.countSeq != nil && rt.frontier.Edges()*int64(rt.pool.Parallelism()) < rt.totalMass {
		d := rt.countSeq()
		rt.deliveredTotal += float64(d.delivered)
		rt.crossTotal += float64(d.cross)
		recv = d.receivers
	} else {
		rt.pool.ForEach(rt.plan.Count(), rt.countFn)
		recv = rt.foldDeliveries()
	}
	rt.recvPrev = int(recv)
	return active
}

// minOver min-folds the frontier members of one neighbor list.
func minOver(fr *graph.Frontier, fvals []float64, nbrs []graph.VertexID, min float64, has bool) (float64, bool) {
	for _, u := range nbrs {
		if fr.Contains(u) && (!has || fvals[u] < min) {
			min, has = fvals[u], true
		}
	}
	return min, has
}

// buildMinKernel builds the min-kind sweep and counting closures once.
func (rt *runtime) buildMinKernel() {
	g := rt.cfg.Graph
	monotone := rt.spec.Monotone
	rt.pullFn = func(i int) {
		ss := rt.shards[i]
		ss.sent, ss.active, ss.updates, ss.maxDelta = 0, 0, 0, 0
		senders := rt.senders[i][:0]
		fr := rt.frontier
		prevAll := rt.allShape(rt.superstep - 1)
		// WCC's superstep-1 rule: active-but-unchanged vertices still
		// send their label once (Compute's Superstep()==1 case).
		sendAnyway := rt.spec.Kind == PullMinAll && rt.superstep == 1
		s := rt.plan.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			if monotone && !math.IsInf(rt.values[v], 1) {
				// Settled: Monotone promises no message improves a finite
				// value, and the vertex halted when it last computed, so
				// the push path would min-fold its inbox and change
				// nothing. Its active contribution is recovered from the
				// distinct-receiver tally in pullMinPhase.
				continue
			}
			minMsg, has := minOver(fr, rt.fvals, g.InNeighbors(graph.VertexID(v)), 0, false)
			if prevAll {
				minMsg, has = minOver(fr, rt.fvals, g.OutNeighbors(graph.VertexID(v)), minMsg, has)
			}
			if !has && rt.halted[v] {
				continue // halted with no messages: skipped, exactly as computeFn would
			}
			ss.active++
			changed := false
			if has && minMsg < rt.values[v] {
				rt.values[v] = minMsg
				ss.updates++
				changed = true
			}
			if changed || sendAnyway {
				if d := rt.sendMass(graph.VertexID(v), rt.superstep); d > 0 {
					ss.sent += int64(d)
					senders = append(senders, graph.VertexID(v))
				}
			}
			rt.halted[v] = true // both kernels vote to halt every superstep
		}
		rt.senders[i] = senders
	}
	// countSeq is the sender-side delivery count: the same totals as
	// countFn from one sequential pass over the new frontier's edges,
	// which beats the full sharded receiver scan whenever few vertices
	// changed. The merge pass counts one delivery per message without a
	// combiner and one per distinct (sender machine, receiver) pair with
	// one; the combined count dedups the pairs with one mask word per
	// receiver, so it needs the machine count to fit a word; past that
	// only the receiver-side scan runs. The mask also tallies distinct
	// receivers — the next monotone pull superstep's active count
	// (pullMinPhase stores it).
	if rt.cfg.Combine == nil || rt.cfg.M <= 64 {
		if rt.cfg.Combine != nil || monotone {
			rt.countMask = make([]uint64, g.NumVertices())
		}
		rt.countSeq = func() delivery {
			var d delivery
			all := rt.allShape(rt.superstep)
			combined := rt.combining(rt.superstep)
			marking := combined || monotone
			touched := rt.touched[:0]
			// sendsTo counts the messages a sender on machine m emits
			// along one of its neighbor lists; bit is m's mask bit when
			// combining, a plain seen-mark otherwise.
			sendsTo := func(nbrs []graph.VertexID, m int32, bit uint64) {
				for _, w := range nbrs {
					if marking {
						mask := rt.countMask[w]
						if combined && mask&bit != 0 {
							continue // folded into m's earlier message to w
						}
						if mask == 0 {
							touched = append(touched, w)
						}
						rt.countMask[w] = mask | bit
					}
					d.delivered++
					if m != rt.owner[w] {
						d.cross++
					}
				}
			}
			for _, u := range rt.frontier.Members() {
				m := rt.owner[u]
				bit := uint64(1)
				if combined {
					bit <<= uint(m)
				}
				sendsTo(g.OutNeighbors(u), m, bit)
				if all {
					sendsTo(g.InNeighbors(u), m, bit)
				}
			}
			d.receivers = int64(len(touched))
			for _, w := range touched {
				rt.countMask[w] = 0
			}
			rt.touched = touched
			return d
		}
	}
	rt.countFn = func(i int) {
		// Receiver-side delivery accounting for the messages the new
		// senders emit. Receiver v hears from sender u along u's
		// out-edges (u in in(v)) and, under the all-neighbors shape, u's
		// in-edges (u in out(v)).
		ss := rt.shards[i]
		fr := rt.frontier
		all := rt.allShape(rt.superstep)
		combined := rt.combining(rt.superstep)
		if combined {
			for m := range ss.stamp {
				ss.stamp[m] = -1
			}
		}
		var d delivery
		// hearsFrom counts the deliveries receiver v gets from the
		// frontier members of one of its neighbor lists: one per member,
		// or with a combiner one per sender machine not yet stamped v.
		hearsFrom := func(nbrs []graph.VertexID, v int32) {
			own := rt.owner[v]
			for _, u := range nbrs {
				if !fr.Contains(u) {
					continue
				}
				m := rt.owner[u]
				if combined {
					if ss.stamp[m] == v {
						continue
					}
					ss.stamp[m] = v
				}
				d.delivered++
				if m != own {
					d.cross++
				}
			}
		}
		s := rt.plan.Shard(i)
		for v := s.Lo; v < s.Hi; v++ {
			dv := d.delivered
			hearsFrom(g.InNeighbors(graph.VertexID(v)), int32(v))
			if all {
				hearsFrom(g.OutNeighbors(graph.VertexID(v)), int32(v))
			}
			if d.delivered != dv {
				d.receivers++
			}
		}
		rt.merged[i] = d
	}
}

// materializeInbox rebuilds the pending inbox arena from the sender
// frontier when a pull superstep is followed by a push one: the pull
// path never ran the merge pass, so the messages exist only implicitly.
// The rebuild places them in the exact order the merge pass would have
// — ascending sender, out-edges then in-edges per sender — and folds
// them through the same combiner pass, so the arena is bit-identical to
// the one a push superstep would have left. The fold's delivery counts
// are discarded: the pull superstep already accounted them.
func (rt *runtime) materializeInbox() {
	g := rt.cfg.Graph
	sent := rt.superstep - 1
	all := rt.allShape(sent)
	members := rt.frontier.Members()
	if rt.cfg.probe != nil && len(members) > 0 {
		rt.cfg.probe.materialized++
	}
	cnt := rt.nextLen
	for i := range cnt {
		cnt[i] = 0
	}
	for _, u := range members {
		for _, w := range g.OutNeighbors(u) {
			cnt[w]++
		}
		if all {
			for _, w := range g.InNeighbors(u) {
				cnt[w]++
			}
		}
	}
	combined := rt.combining(sent)
	run := int32(0)
	recv := rt.recv[0][:0]
	for v := range cnt {
		rt.nextStart[v] = run
		if combined && cnt[v] != 0 {
			recv = append(recv, graph.VertexID(v))
		}
		run += cnt[v]
		cnt[v] = 0
	}
	rt.recv[0] = recv
	rt.nextVals = par.Grow(rt.nextVals, int(run))
	var mach []machineID
	if combined {
		rt.mach = par.Grow(rt.mach, int(run))
		mach = rt.mach
	}
	delta := rt.spec.Delta
	for _, u := range members {
		val := rt.values[u] + delta
		srcM := rt.owner[u]
		for _, w := range g.OutNeighbors(u) {
			rt.place(rt.nextVals, mach, 0, srcM, w, val)
		}
		if all {
			for _, w := range g.InNeighbors(u) {
				rt.place(rt.nextVals, mach, 0, srcM, w, val)
			}
		}
	}
	if combined {
		rt.fold(rt.shards[0], recv, rt.nextVals, mach, 0)
	}
	rt.deliver()
}
