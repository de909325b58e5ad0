package par_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kl"
	"repro/internal/multilevel"
	"repro/internal/par"
)

// The refiners color boundary tiles of dense coarse levels. Take the densest
// level of a coarsened power-law graph, walk the boundary of a 4-way
// partition in 512-node tiles the way the colored climb does, and check each
// tile's coloring against round-based Jones–Plassmann — and that
// kl.Classes groups the tile by exactly those colors.
func TestColorMatchesJonesPlassmannOnPowerLawTiles(t *testing.T) {
	levels, _ := multilevel.BuildHierarchy(gen.PowerLaw(20000, 4, 1994), 100, 30, rand.New(rand.NewSource(1)), 2)
	var g *graph.Graph
	for _, l := range levels {
		if l.Graph.NumNodes() >= 1024 && (g == nil || l.Graph.NumEdges()*g.NumNodes() > g.NumEdges()*l.Graph.NumNodes()) {
			g = l.Graph
		}
	}
	t.Logf("level: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	var boundary []int
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u)%4 != v%4 {
				boundary = append(boundary, v)
				break
			}
		}
	}
	if len(boundary) < 512 {
		t.Fatalf("boundary of %d nodes is smaller than one tile", len(boundary))
	}

	index := make([]int32, g.NumNodes())
	var classes kl.Classes
	var s par.ColorScratch
	for lo := 0; lo < len(boundary); lo += 512 {
		tile := boundary[lo:min(lo+512, len(boundary))]
		for i, v := range tile {
			index[v] = int32(i + 1)
		}
		adj := func(i int, visit func(u int)) {
			for _, u := range g.Neighbors(tile[i]) {
				if j := index[u]; j > 0 {
					visit(int(j - 1))
				}
			}
		}
		want := par.JonesPlassmannOracle(2, len(tile), adj)
		got := s.Color(len(tile), adj)
		for i := range tile {
			if got[i] != want[i] {
				t.Fatalf("tile at %d: node %d colored %d, Jones–Plassmann %d", lo, tile[i], got[i], want[i])
			}
		}
		members, off := classes.Group(g, tile)
		for c := 0; c+1 < len(off); c++ {
			prev := -1
			for _, v := range members[off[c]:off[c+1]] {
				if i := int(index[v]) - 1; want[i] != int32(c) || int(v) <= prev {
					t.Fatalf("tile at %d: kl.Classes put node %d in class %d out of order or against color %d", lo, v, c, want[i])
				}
				prev = int(v)
			}
		}
		if int(off[len(off)-1]) != len(tile) {
			t.Fatalf("tile at %d: kl.Classes grouped %d of %d nodes", lo, off[len(off)-1], len(tile))
		}
		for _, v := range tile {
			index[v] = 0
		}
	}
}
