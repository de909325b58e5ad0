package kl

import (
	"repro/internal/graph"
	"repro/internal/par"
)

// Classes groups a node set by a deterministic proper coloring of the set's
// induced subgraph (par.Color: greedy coloring in descending hashed-id
// priority, the closed form of Jones–Plassmann).
// Two nodes of one color class share no edge, so their candidate moves can
// be gain-evaluated concurrently against class-start state without one move
// invalidating another's deltas — the shared scheduling substrate of the
// colored boundary climb (per tile) and the parallel FM pass (per round,
// package fm).
//
// The zero value is ready to use. The slices returned by Group alias the
// scratch and are valid until the next call; a Classes is not safe for
// concurrent use.
type Classes struct {
	bIndex  []int32 // graph node -> 1 + position in the current set; 0 = absent
	members []int32 // set nodes grouped by color, ascending within a class
	off     []int32 // members[off[c]:off[c+1]] = color class c
	fill    []int32 // counting-sort fill cursor per class
	colors  par.ColorScratch

	// adjacency source of the in-flight Group call, for the bound-method
	// visitor (a per-node closure would allocate on every visit).
	g     *graph.Graph
	nodes []int
}

// adj is the induced-subgraph adjacency of the node set being grouped:
// neighbors outside the set are invisible.
func (cs *Classes) adj(i int, visit func(u int)) {
	for _, u := range cs.g.Neighbors(cs.nodes[i]) {
		if j := cs.bIndex[u]; j > 0 {
			visit(int(j - 1))
		}
	}
}

// Group colors the induced subgraph of nodes — which must be ascending and
// duplicate-free — and returns the set grouped class by class:
// members[off[c]:off[c+1]] is color class c, internally ascending (the
// counting sort iterates the ascending input in order). The grouping is a
// pure function of (g, nodes), so every caller sweeping "class by class,
// ascending inside" walks one deterministic permutation of the set.
func (cs *Classes) Group(g *graph.Graph, nodes []int) (members []int32, off []int32) {
	if len(cs.bIndex) < g.NumNodes() {
		cs.bIndex = make([]int32, g.NumNodes())
	}
	for i, v := range nodes {
		cs.bIndex[v] = int32(i + 1)
	}
	cs.g, cs.nodes = g, nodes
	colors := cs.colors.Color(len(nodes), cs.adj)
	cs.g, cs.nodes = nil, nil
	nColors := 0
	for _, cl := range colors {
		if int(cl) >= nColors {
			nColors = int(cl) + 1
		}
	}
	cs.off = ensureInt32(cs.off, nColors+1)
	for i := range cs.off {
		cs.off[i] = 0
	}
	for _, cl := range colors {
		cs.off[cl+1]++
	}
	for cl := 0; cl < nColors; cl++ {
		cs.off[cl+1] += cs.off[cl]
	}
	cs.members = ensureInt32(cs.members, len(nodes))
	cs.fill = ensureInt32(cs.fill, nColors)
	for i := range cs.fill {
		cs.fill[i] = 0
	}
	for i, v := range nodes {
		cl := colors[i]
		cs.members[cs.off[cl]+cs.fill[cl]] = int32(v)
		cs.fill[cl]++
	}
	// Restore bIndex's zero invariant, so the next Group — of any node set —
	// starts clean without an O(NumNodes) sweep.
	for _, v := range nodes {
		cs.bIndex[v] = 0
	}
	return cs.members, cs.off
}
