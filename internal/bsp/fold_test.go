package bsp

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"graphbench/internal/engine"
	"graphbench/internal/graph"
	"graphbench/internal/sim"
)

// inboxRecord is one vertex's inbox as Compute was handed it: where it
// starts in the arena and the slot values in order.
type inboxRecord struct {
	start int32
	msgs  []float64
}

// randomMultigraph draws n vertices and about 5n edges with repeats: a
// few hub destinations, so runs of one sender machine interleave with
// others' at the same receiver.
func randomMultigraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for e := 0; e < 5*n; e++ {
		dst := rng.Intn(n)
		if rng.Intn(3) == 0 {
			dst = rng.Intn(1 + n/8)
		}
		b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(dst))
	}
	return b.Build()
}

// scatterProgram sends one order-sensitive value per out-edge in
// superstep sendAt and records every vertex's inbox, and the merge pass's
// delivery counts, in the superstep after. Nobody votes to halt.
type scatterProgram struct {
	sendAt int

	mu               sync.Mutex
	inbox            map[graph.VertexID]inboxRecord
	delivered, cross int64
}

func (p *scatterProgram) Init(graph.VertexID) float64 { return 0 }

// scatterValue is what u sends along its k-th out-edge: thirds and
// sevenths, so a sum folded in another order differs in its last bits.
func scatterValue(u graph.VertexID, k int) float64 {
	return float64(u%7+1)/3 + float64(k%5+1)/7
}

func (p *scatterProgram) Compute(ctx *Context, msgs []float64) {
	switch ctx.Superstep() {
	case p.sendAt:
		for k, w := range ctx.OutNeighbors() {
			ctx.Send(w, scatterValue(ctx.Vertex(), k))
		}
	case p.sendAt + 1:
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.inbox == nil {
			p.inbox = make(map[graph.VertexID]inboxRecord)
			for _, d := range ctx.rt.merged {
				p.delivered += d.delivered
				p.cross += d.cross
			}
		}
		p.inbox[ctx.Vertex()] = inboxRecord{ctx.rt.inStart[ctx.v], append([]float64(nil), msgs...)}
	}
}

// TestFoldMatchesKeyedCombiner holds the scatter-then-fold merge pass
// against the combiner it replaced, written the obvious way: one slot
// per (sender machine, destination) in a map, claimed at the pair's
// first message and combined into afterwards, over the sequential send
// stream. Inbox offsets, slot values slot for slot, delivered and cross
// must agree at machine counts on both sides of a mask word and of the
// shard count, whether or not superstep 0 combines.
func TestFoldMatchesKeyedCombiner(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		g := randomMultigraph(rng, n)
		for _, m := range []int{1, 3, 64, 65, 200} {
			owner := make([]int, n)
			for v := range owner {
				owner[v] = rng.Intn(m)
			}
			machineOf := func(v graph.VertexID) int { return owner[v] }
			for _, combineFrom := range []int{0, 1} {
				// The reference: the sequential stream is ascending sender,
				// out-edges in order.
				type pair struct {
					m   int
					dst graph.VertexID
				}
				want := make(map[graph.VertexID]inboxRecord, n)
				slotOf := make(map[pair]int)
				raw := make([]int32, n)
				var delivered, cross int64
				for u := 0; u < n; u++ {
					for k, w := range g.OutNeighbors(graph.VertexID(u)) {
						raw[w]++
						val := scatterValue(graph.VertexID(u), k)
						rec := want[w]
						if i, ok := slotOf[pair{owner[u], w}]; ok {
							rec.msgs[i] = SumCombine(rec.msgs[i], val)
							continue
						}
						slotOf[pair{owner[u], w}] = len(rec.msgs)
						rec.msgs = append(rec.msgs, val)
						want[w] = rec
						delivered++
						if owner[u] != owner[w] {
							cross++
						}
					}
				}
				start := int32(0)
				for v := 0; v < n; v++ {
					rec := want[graph.VertexID(v)]
					rec.start = start
					want[graph.VertexID(v)] = rec
					start += raw[v]
				}

				for _, shards := range []int{1, 3, 8} {
					label := fmt.Sprintf("seed=%d M=%d from=%d shards=%d", seed, m, combineFrom, shards)
					prog := &scatterProgram{sendAt: combineFrom}
					_, err := Run(sim.NewSize(m), Config{
						Graph: g, Scale: 1, M: m, MachineOf: machineOf, Profile: &testProfile,
						Program: prog, Combine: SumCombine, CombineFrom: combineFrom,
						MaxSupersteps: combineFrom + 2, Shards: shards,
					})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if prog.delivered != delivered || prog.cross != cross {
						t.Fatalf("%s: delivered %d cross %d, want %d and %d", label, prog.delivered, prog.cross, delivered, cross)
					}
					for v := 0; v < n; v++ {
						got, ref := prog.inbox[graph.VertexID(v)], want[graph.VertexID(v)]
						if got.start != ref.start || !reflect.DeepEqual(got.msgs, append([]float64(nil), ref.msgs...)) {
							t.Fatalf("%s: vertex %d inbox %+v, want %+v", label, v, got, ref)
						}
					}
				}
			}
		}
	}
}

// inboxTrace wraps a pull-kernel program and records the inbox of every
// vertex Compute runs for, by superstep — the push supersteps only: a
// pull superstep runs the kernel, not Compute.
type inboxTrace struct {
	PullProgram
	mu    sync.Mutex
	inbox map[[2]int32]inboxRecord // (superstep, vertex)
}

func (p *inboxTrace) Compute(ctx *Context, msgs []float64) {
	p.mu.Lock()
	p.inbox[[2]int32{int32(ctx.Superstep()), int32(ctx.v)}] = inboxRecord{ctx.rt.inStart[ctx.v], append([]float64{}, msgs...)}
	p.mu.Unlock()
	p.PullProgram.Compute(ctx, msgs)
}

// TestMaterializedInboxEqualsPush: when the direction policy falls back
// from pull to push, materializeInbox rebuilds the pending inbox from
// the sender frontier; every vertex must then be handed exactly the
// inbox — offset and slots — the same superstep of an all-push run
// hands it, on random lollipops (a clique that goes dense, a tail whose
// frontier collapses) with repeated edges.
func TestMaterializedInboxEqualsPush(t *testing.T) {
	materialized := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clique, tail := 10+rng.Intn(30), 10+rng.Intn(40)
		n := clique + tail
		b := graph.NewBuilder(n)
		for e := 0; e < clique*clique; e++ {
			b.AddEdge(graph.VertexID(rng.Intn(clique)), graph.VertexID(rng.Intn(clique)))
		}
		for v := clique; v < n; v++ {
			for r := rng.Intn(3); r >= 0; r-- {
				b.AddEdge(graph.VertexID(v-1), graph.VertexID(v))
			}
		}
		g := b.Build()
		for _, m := range []int{1, 3, 64, 65, 200} {
			owner := make([]int, n)
			for v := range owner {
				owner[v] = rng.Intn(m)
			}
			base := map[string]Config{
				"wcc":  {Program: WCCProgram{}, Combine: MinCombine, CombineFrom: 1, UseInNeighbors: true},
				"sssp": {Program: &SSSPProgram{Source: 0}, Combine: MinCombine},
			}
			for name, cfg := range base {
				cfg.Graph, cfg.Scale, cfg.M, cfg.Profile = g, 1, m, &testProfile
				cfg.MachineOf = func(v graph.VertexID) int { return owner[v] }
				run := func(dir engine.Direction, shards int) (*inboxTrace, *directionProbe) {
					c := cfg
					tr := &inboxTrace{PullProgram: cfg.Program.(PullProgram), inbox: make(map[[2]int32]inboxRecord)}
					c.Program, c.Direction, c.Shards, c.probe = tr, dir, shards, &directionProbe{}
					if _, err := Run(sim.NewSize(m), c); err != nil {
						t.Fatal(err)
					}
					return tr, c.probe
				}
				push, _ := run(engine.DirectionPush, 1)
				for _, shards := range []int{1, 3, 8} {
					auto, probe := run(engine.DirectionAuto, shards)
					materialized += probe.materialized
					for key, got := range auto.inbox {
						if want := push.inbox[key]; !reflect.DeepEqual(got, want) {
							t.Fatalf("seed=%d %s M=%d shards=%d: superstep %d vertex %d inbox %+v, all-push %+v",
								seed, name, m, shards, key[0], key[1], got, want)
						}
					}
				}
			}
		}
	}
	if materialized == 0 {
		t.Fatal("no run fell back from pull to push with messages pending; the test is vacuous")
	}
}
