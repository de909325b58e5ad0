package kl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
)

func lpTestGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return gen.RandomGeometric(rng, n, math.Sqrt(2.56/float64(n)))
}

// propagated runs label propagation from an 8-part RandomBalanced start
// through f (LabelPropagate or a sweep's method).
func propagated(g *graph.Graph, cfg Config, seed int64, f func(*graph.Graph, *partition.Partition, *partition.Eval, Config) int) (*partition.Partition, int) {
	p := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(seed)))
	moves := f(g, p, partition.NewEvalBoundary(g, p), cfg)
	return p, moves
}

func requireSameAssign(t *testing.T, label string, ref, p *partition.Partition, refMoves, moves int) {
	t.Helper()
	if moves != refMoves {
		t.Fatalf("%s: %d moves, reference made %d", label, moves, refMoves)
	}
	for v := range p.Assign {
		if p.Assign[v] != ref.Assign[v] {
			t.Fatalf("%s: node %d in part %d, reference put it in %d", label, v, p.Assign[v], ref.Assign[v])
		}
	}
}

func TestLabelPropagateReducesCutWithinCap(t *testing.T) {
	g := lpTestGraph(4000, 1)
	p := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(2)))
	ev := partition.NewEvalBoundary(g, p)
	before := ev.TotalCutWeight()
	moves := LabelPropagate(g, p, ev, Config{Workers: 1})
	if moves == 0 {
		t.Fatal("no moves on a random partition of a geometric graph")
	}
	if after := ev.TotalCutWeight(); after >= before {
		t.Fatalf("cut did not drop: %v -> %v", before, after)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("invalid partition after refinement: %v", err)
	}
	// RandomBalanced starts every part within the cap, and LP never pushes
	// a part over it, so the cap must hold on exit.
	maxLoad := g.TotalNodeWeight() / float64(p.Parts) * (1 + lpBalance)
	for q, w := range ev.Weights {
		if w > maxLoad+1e-9 {
			t.Fatalf("part %d weight %v exceeds cap %v", q, w, maxLoad)
		}
	}
}

func TestLabelPropagateWorkersBitIdentical(t *testing.T) {
	// The worker count is a pure speed knob: every width must produce the
	// identical move sequence and final assignment.
	g := lpTestGraph(3000, 3)
	ref, refMoves := propagated(g, Config{Workers: 1}, 4, LabelPropagate)
	for _, workers := range []int{2, 4, 8} {
		p, moves := propagated(g, Config{Workers: workers}, 4, LabelPropagate)
		requireSameAssign(t, "workers", ref, p, refMoves, moves)
	}
}

func TestSweepScratchReuseBitIdentical(t *testing.T) {
	// One sweep scratch recycled across refinements — of different graphs,
	// in both growing and shrinking order, alternating the two move rules —
	// must change nothing vs fresh state.
	var s sweep
	for trial, n := range []int{2500, 800, 4000} {
		g := lpTestGraph(n, int64(10+trial))
		cfg := Config{Workers: 2}
		seed := int64(20 + trial)
		ref, refMoves := propagated(g, cfg, seed, new(sweep).labelPropagate)
		p, moves := propagated(g, cfg, seed, s.labelPropagate)
		requireSameAssign(t, "label propagation", ref, p, refMoves, moves)
		ref, refMoves = propagated(g, cfg, seed, new(sweep).hillClimb)
		p, moves = propagated(g, cfg, seed, s.hillClimb)
		requireSameAssign(t, "climb", ref, p, refMoves, moves)
	}
}
