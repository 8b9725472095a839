package bsp

import (
	"reflect"
	"strings"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/partition"
	"graphbench/internal/sim"
)

// chunkCorruptor is PageRank whose last Compute of superstep at flips
// one byte of the shard's bucket-spill file — after the shard's final
// send, before the merge pass replays the chunks. flushes records how
// many chunks the corrupted stream held, so a run that never spilled
// cannot pass vacuously.
type chunkCorruptor struct {
	PageRankProgram
	at      int // superstep to corrupt; <0 never
	last    graph.VertexID
	flushes int
	t       *testing.T
}

func (p *chunkCorruptor) Compute(ctx *Context, msgs []float64) {
	p.PageRankProgram.Compute(ctx, msgs)
	if ctx.Superstep() != p.at || ctx.Vertex() != p.last {
		return
	}
	sp := ctx.ss.spill
	p.flushes = len(sp.chunks[0])
	if p.flushes == 0 {
		return
	}
	var b [1]byte
	off := sp.chunks[0][p.flushes/2].off + 5
	if _, err := sp.f.ReadAt(b[:], off); err != nil {
		p.t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := sp.f.WriteAt(b[:], off); err != nil {
		p.t.Fatal(err)
	}
}

// TestCorruptSpillChunk covers the raw bkt-s<i>.dat chunk files the
// merge body replays through shardState.segment: a spilled run either
// equals the in-core run bit for bit, or — when a chunk's bytes changed
// on disk between flush and replay — fails with the checksum error. It
// never returns an Output computed from corrupt messages.
func TestCorruptSpillChunk(t *testing.T) {
	g := datasets.Generate(datasets.Twitter, datasets.Options{Scale: 100_000, Seed: 1})
	const m = 4
	run := func(at int, budget int64) (*Output, *chunkCorruptor, error) {
		prog := &chunkCorruptor{PageRankProgram: PageRankProgram{Damping: 0.15},
			at: at, last: graph.VertexID(g.NumVertices() - 1), t: t}
		cfg := Config{
			Graph: g, Scale: 1, M: m, MachineOf: partition.EdgeCut{M: m, Seed: 7}.MachineOf,
			Profile: &testProfile, Program: prog, Combine: SumCombine,
			FixedSupersteps: 4, Shards: 1,
		}
		if budget > 0 {
			gov, err := govern.New(budget, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer gov.Close()
			cfg.Governor = gov
			cfg.MemoryTier = engine.TierSpill
		}
		out, err := Run(sim.NewSize(m), cfg)
		return out, prog, err
	}
	// 512 KiB holds the out-of-core floor (windows, one 15k-message
	// region) and leaves a ~43 KiB flush threshold: ~2,700 messages a
	// chunk against ~15k sent per superstep.
	const budget = 512 << 10

	inCore, _, err := run(-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spilled, _, err := run(-1, budget)
	if err != nil {
		t.Fatalf("uncorrupted spilled run: %v", err)
	}
	if !spilled.Govern.Spilled || spilled.Govern.SpillBytes == 0 {
		t.Fatalf("run did not spill: %+v", spilled.Govern)
	}
	if !reflect.DeepEqual(spilled.Values, inCore.Values) || spilled.Supersteps != inCore.Supersteps {
		t.Fatal("uncorrupted spilled run differs from the in-core run")
	}

	_, prog, err := run(2, budget)
	if prog.flushes < 3 {
		t.Fatalf("corrupted stream held %d chunks, want several flushes per superstep", prog.flushes)
	}
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupt chunk: err = %v, want the spill checksum mismatch", err)
	}
}
