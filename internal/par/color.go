package par

import (
	"cmp"
	"math/bits"
	"slices"
)

// Color computes a proper coloring of the n-node graph whose adjacency is
// given by adj: adj(v, visit) must call visit(u) for every neighbor u of v
// (self-visits are ignored; the relation must be symmetric). It returns one
// color per node, 0-based and dense from 0.
//
// The algorithm is greedy coloring in descending hashed-id priority, the
// closed form of Jones–Plassmann: one sweep visits the nodes in descending
// prio order and gives each the smallest color absent from its
// already-colored — that is, higher-priority — neighbors. A Jones–Plassmann
// round colors a node exactly when all of its higher-priority neighbors are
// colored and none of its lower-priority ones are, with that same smallest
// absent color, so the sweep reproduces the round-based coloring bit for bit
// while calling adj once per node: O(Σ degree + n log n), no rounds. The
// priority hash is a fixed bijection of the node index, so ties cannot occur
// and the coloring is a pure function of the graph.
//
// The refiners use this on the boundary-induced subgraph of a partition: two
// nodes of one color class share no edge, so their candidate moves can be
// gain-evaluated concurrently without one move invalidating the other's cut
// deltas.
//
// Color allocates its result and working buffers fresh; callers that color
// repeatedly (one tile at a time, pass after pass) should hold a ColorScratch
// and call its Color method instead.
func Color(n int, adj func(v int, visit func(u int))) []int32 {
	var s ColorScratch
	return s.Color(n, adj)
}

// ColorScratch owns Color's result and working buffers so repeated colorings
// recycle them. The zero value is ready to use. The slice returned by its
// Color method aliases the scratch and is valid until the next call; a
// scratch is not safe for concurrent use.
type ColorScratch struct {
	// order is [0, len(order)) in descending prio. prio depends on the index
	// alone, so the order depends on the set size alone and is rebuilt only
	// when the size changes: every full tile shares one.
	order []prioNode
	v     *colorVisitor
}

type prioNode struct {
	prio uint64
	i    int32
}

// colorVisitor records the colors of the visited neighbors in a bitset.
// visit is its bound visitUsed, created once per scratch: a method value
// passed to adj escapes, so binding it per call would allocate every call.
type colorVisitor struct {
	color []int32
	used  []uint64 // bit c set: some visited neighbor has color c
	words int      // used[:words] covers every color assigned so far
	visit func(u int)
}

func (w *colorVisitor) visitUsed(u int) {
	if c := w.color[u]; c >= 0 {
		w.used[c>>6] |= 1 << uint(c&63)
	}
}

// Color is the package-level Color drawing the result and every working
// buffer from s; the two are bit-identical for all inputs.
func (s *ColorScratch) Color(n int, adj func(v int, visit func(u int))) []int32 {
	if s.v == nil {
		s.v = new(colorVisitor)
		s.v.visit = s.v.visitUsed
	}
	w := s.v
	if cap(w.color) < n {
		w.color = make([]int32, n)
		w.used = make([]uint64, n/64+1)
	}
	color := w.color[:n]
	for i := range color {
		color[i] = -1
	}
	w.color, w.words = color, 1
	for _, pn := range s.orderOf(n) {
		used := w.used[:w.words]
		clear(used)
		adj(int(pn.i), w.visit)
		c := len(used) * 64
		for k, bitsUsed := range used {
			if bitsUsed != ^uint64(0) {
				c = k*64 + bits.TrailingZeros64(^bitsUsed)
				break
			}
		}
		color[pn.i] = int32(c)
		if c>>6 >= w.words {
			w.words = c>>6 + 1
		}
	}
	return color
}

// orderOf returns the nodes [0, n) in descending prio, from the cache when
// the last call had the same n.
func (s *ColorScratch) orderOf(n int) []prioNode {
	if len(s.order) == n {
		return s.order
	}
	order := s.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, prioNode{prio(i), int32(i)})
	}
	slices.SortFunc(order, func(a, b prioNode) int { return cmp.Compare(b.prio, a.prio) })
	s.order = order
	return order
}

// prio is a splitmix64-style finalizer: a bijection on 64-bit integers, so
// distinct nodes always have distinct priorities and the coloring order
// needs no tie-breaking.
func prio(v int) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
