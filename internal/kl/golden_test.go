package kl_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/partition"
)

// goldenGraphs are the fixed inputs of the golden partitions: a 4000-node
// random geometric graph (unit weights, the shape of the V-cycle's big
// levels) and a 500-node graph with integer node and edge weights (the shape
// of its coarse levels).
func goldenGraphs() map[string]*graph.Graph {
	rgg := gen.RandomGeometric(rand.New(rand.NewSource(1)), 4000, math.Sqrt(2.56/4000))
	rng := rand.New(rand.NewSource(2))
	b := graph.NewBuilder(500)
	for v := 0; v < 500; v++ {
		b.SetNodeWeight(v, float64(1+rng.Intn(6)))
	}
	for v := 1; v < 500; v++ {
		b.AddEdge(v, rng.Intn(v), float64(1+rng.Intn(5)))
	}
	for i := 0; i < 1000; i++ {
		u, v := rng.Intn(500), rng.Intn(500)
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v, float64(1+rng.Intn(5)))
		}
	}
	return map[string]*graph.Graph{"rgg4000": rgg, "weighted500": b.Build()}
}

// assignHash is the FNV-64a hash of the assignment vector, little-endian.
func assignHash(p *partition.Partition) uint64 {
	h := fnv.New64a()
	var buf [2]byte
	for _, q := range p.Assign {
		binary.LittleEndian.PutUint16(buf[:], q)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGoldenPartitions pins the exact results of the colored boundary sweep
// under both move rules (label propagation, the fitness climb) and of
// Refine, on fixed inputs from an 8-part RandomBalanced start: any change to
// the tile grid, the class order, the candidate accumulation or a move rule
// shows up as a different hash or move count.
func TestGoldenPartitions(t *testing.T) {
	type sweep func(g *graph.Graph, p *partition.Partition, ev *partition.Eval) int
	lpAt := func(workers int) sweep {
		return func(g *graph.Graph, p *partition.Partition, ev *partition.Eval) int {
			return kl.LabelPropagate(g, p, ev, kl.Config{Workers: workers})
		}
	}
	climb := func(o partition.Objective) sweep {
		return func(g *graph.Graph, p *partition.Partition, ev *partition.Eval) int {
			return kl.HillClimbColored(g, p, ev, kl.Config{Objective: o, Workers: 2})
		}
	}
	// Refine returns no move count; its row pins the hash alone.
	refine := func(g *graph.Graph, p *partition.Partition, ev *partition.Eval) int {
		kl.Refine(g, p, ev, kl.Config{Workers: 2})
		return 0
	}
	runs := []struct {
		name string
		f    sweep
	}{
		{"lp/w1", lpAt(1)},
		{"lp/w4", lpAt(4)},
		{"climb/cut", climb(partition.TotalCut)},
		{"climb/maxcut", climb(partition.WorstCut)},
		{"climb/commvol", climb(partition.CommVolume)},
		{"refine", refine},
	}
	want := map[string]struct {
		hash  uint64
		moves int
	}{
		"rgg4000/lp/w1":             {0xd39662cc6ba69337, 3317},
		"rgg4000/lp/w4":             {0xd39662cc6ba69337, 3317},
		"rgg4000/climb/cut":         {0x9ad2015559d71705, 3889},
		"rgg4000/climb/maxcut":      {0x1585cc9512c3726d, 5},
		"rgg4000/climb/commvol":     {0xe5da6082d047dc45, 3692},
		"rgg4000/refine":            {0x9ad2015559d71705, 0},
		"weighted500/lp/w1":         {0x53e3b521780b01fe, 382},
		"weighted500/lp/w4":         {0x53e3b521780b01fe, 382},
		"weighted500/climb/cut":     {0x17a1ee347282834c, 301},
		"weighted500/climb/maxcut":  {0xc1cdb3054615866, 41},
		"weighted500/climb/commvol": {0xb50faa9a73d72f64, 96},
		"weighted500/refine":        {0x17a1ee347282834c, 0},
	}
	for gname, g := range goldenGraphs() {
		for _, r := range runs {
			p := partition.RandomBalanced(g.NumNodes(), 8, rand.New(rand.NewSource(3)))
			ev := partition.NewEvalBoundary(g, p)
			moves := r.f(g, p, ev)
			if err := p.Validate(g); err != nil {
				t.Fatalf("%s/%s: %v", gname, r.name, err)
			}
			key := gname + "/" + r.name
			w, ok := want[key]
			if !ok {
				t.Errorf("%s: no golden value", key)
				continue
			}
			if h := assignHash(p); h != w.hash || moves != w.moves {
				t.Errorf("%s: hash %#x moves %d, want %#x moves %d", key, h, moves, w.hash, w.moves)
			}
		}
	}
}
