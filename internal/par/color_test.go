package par

import (
	"fmt"
	"math/rand"
	"testing"
)

// randAdj builds a symmetric adjacency list for n nodes with roughly avgDeg
// neighbors each.
func randAdj(n, avgDeg int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int, n)
	edges := n * avgDeg / 2
	for e := 0; e < edges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	return adj
}

func visitFn(adj [][]int) func(v int, visit func(u int)) {
	return func(v int, visit func(u int)) {
		for _, u := range adj[v] {
			visit(u)
		}
	}
}

// JonesPlassmannOracle is the round-based Jones–Plassmann coloring that Color
// computes in closed form, kept as its test oracle (exported for the
// external tests in this package): in rounds, every uncolored node whose
// priority beats all of its uncolored neighbors takes the smallest color
// absent from its colored neighborhood. Decisions in a round read only the
// previous round's state, so the result is the same at every width.
func JonesPlassmannOracle(workers, n int, adj func(v int, visit func(u int))) []int32 {
	color := make([]int32, n)
	active := make([]int, n)
	for v := range color {
		color[v] = -1
		active[v] = v
	}
	decided := make([]int32, n)
	for len(active) > 0 {
		For(workers, len(active), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				wins := true
				adj(v, func(u int) {
					if u != v && color[u] < 0 && prio(u) > prio(v) {
						wins = false
					}
				})
				decided[i] = -1
				if !wins {
					continue
				}
				used := map[int32]bool{}
				adj(v, func(u int) {
					if color[u] >= 0 {
						used[color[u]] = true
					}
				})
				c := int32(0)
				for used[c] {
					c++
				}
				decided[i] = c
			}
		})
		next := active[:0]
		for i, v := range active {
			if decided[i] >= 0 {
				color[v] = decided[i]
			} else {
				next = append(next, v)
			}
		}
		active = next
	}
	return color
}

// checkMatchesOracle asserts that Color — both the package-level function
// and a reused scratch — equals the round-based oracle node for node.
func checkMatchesOracle(t *testing.T, name string, s *ColorScratch, n int, adj func(v int, visit func(u int))) {
	t.Helper()
	want := JonesPlassmannOracle(2, n, adj)
	for _, got := range [][]int32{Color(n, adj), s.Color(n, adj)} {
		if len(got) != n {
			t.Fatalf("%s: %d colors for %d nodes", name, len(got), n)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("%s: node %d colored %d, Jones–Plassmann %d", name, v, got[v], want[v])
			}
		}
	}
}

func TestColorMatchesJonesPlassmann(t *testing.T) {
	var s ColorScratch
	for _, deg := range []int{2, 6, 30, 100, 400} {
		for _, n := range []int{1, 17, 512, 1500} {
			if deg >= 100 && n > 512 {
				continue
			}
			adj := randAdj(n, deg, int64(n*1000+deg))
			checkMatchesOracle(t, fmt.Sprintf("random n=%d deg=%d", n, deg), &s, n, visitFn(adj))
		}
	}

	// A 100-clique needs 100 colors, past the first 64-bit word.
	clique := make([][]int, 100)
	for u := range clique {
		for v := range clique {
			clique[u] = append(clique[u], v) // self-visits included: ignored
		}
	}
	checkMatchesOracle(t, "clique", &s, len(clique), visitFn(clique))
	if got := Color(len(clique), visitFn(clique)); maxColor(got) != 99 {
		t.Errorf("100-clique used %d colors, want 100", maxColor(got)+1)
	}

	star := make([][]int, 300)
	for v := 1; v < len(star); v++ {
		star[0] = append(star[0], v)
		star[v] = append(star[v], 0)
	}
	checkMatchesOracle(t, "star", &s, len(star), visitFn(star))
	checkMatchesOracle(t, "path", &s, 1000, visitFn(pathAdj(1000)))
	checkMatchesOracle(t, "empty", &s, 0, visitFn(nil))
}

// The width the round-based coloring ran at never changed its result, and
// Color — which has no rounds left to spread — reproduces it at every width.
func TestColorBitIdenticalAcrossWorkers(t *testing.T) {
	n := 1500
	adj := randAdj(n, 8, 42)
	ref := Color(n, visitFn(adj))
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got := JonesPlassmannOracle(workers, n, visitFn(adj))
		for v := range got {
			if got[v] != ref[v] {
				t.Fatalf("workers=%d: node %d colored %d by Jones–Plassmann, %d by Color", workers, v, got[v], ref[v])
			}
		}
	}
}

// A round structure would call adj several times per node; the closed form
// calls it exactly once.
func TestColorVisitsEachNodeOnce(t *testing.T) {
	for _, deg := range []int{2, 50, 400} {
		n := 512
		adj := randAdj(n, deg, int64(deg))
		calls := make([]int, n)
		Color(n, func(v int, visit func(u int)) {
			calls[v]++
			for _, u := range adj[v] {
				visit(u)
			}
		})
		for v, c := range calls {
			if c != 1 {
				t.Fatalf("deg=%d: adj called %d times for node %d, want 1", deg, c, v)
			}
		}
	}
}

func TestColorScratchAllocatesNothingWhenWarm(t *testing.T) {
	adj := visitFn(randAdj(512, 100, 5))
	var s ColorScratch
	s.Color(512, adj)
	if allocs := testing.AllocsPerRun(20, func() { s.Color(512, adj) }); allocs != 0 {
		t.Errorf("warm ColorScratch.Color allocated %.1f times per call, want 0", allocs)
	}
}

func TestColorIsProper(t *testing.T) {
	for _, n := range []int{1, 2, 17, 300, 2000} {
		adj := randAdj(n, 6, int64(n))
		colors := Color(n, visitFn(adj))
		for v := 0; v < n; v++ {
			if colors[v] < 0 {
				t.Fatalf("n=%d: node %d left uncolored", n, v)
			}
			for _, u := range adj[v] {
				if u != v && colors[u] == colors[v] {
					t.Fatalf("n=%d: adjacent nodes %d and %d share color %d", n, v, u, colors[v])
				}
			}
		}
	}
}

func pathAdj(n int) [][]int {
	adj := make([][]int, n)
	for v := 0; v+1 < n; v++ {
		adj[v] = append(adj[v], v+1)
		adj[v+1] = append(adj[v+1], v)
	}
	return adj
}

func maxColor(colors []int32) int32 {
	max := int32(-1)
	for _, c := range colors {
		if c > max {
			max = c
		}
	}
	return max
}

func TestColorUsesFewColorsOnPath(t *testing.T) {
	// A path is 2-colorable; greedy coloring in hashed-priority order can
	// need a third color (a node whose two neighbors both precede it with
	// different colors) but never a fourth: each node sees at most two
	// colored neighbors.
	colors := Color(1000, visitFn(pathAdj(1000)))
	if max := maxColor(colors); max > 2 {
		t.Errorf("path graph used %d colors", max+1)
	}
}

func TestColorEmpty(t *testing.T) {
	if got := Color(0, func(int, func(int)) {}); len(got) != 0 {
		t.Errorf("empty graph returned %v", got)
	}
}

func TestReduceSum(t *testing.T) {
	n := 10_000
	want := n * (n - 1) / 2
	for _, workers := range []int{1, 2, 4, 8, 0} {
		got := Reduce(workers, n, 0,
			func(acc, i int) int { return acc + i },
			func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
		}
	}
}

// A non-commutative merge (string concatenation) exposes any dependence of
// the merge order on the worker count: the fixed chunk grid must yield the
// ascending-chunk concatenation for every width.
func TestReduceDeterministicNonCommutativeMerge(t *testing.T) {
	n := 3*ReduceChunk + 7
	run := func(workers int) string {
		return Reduce(workers, n, "",
			func(acc string, i int) string {
				if i%ReduceChunk == 0 {
					return acc + fmt.Sprintf("[%d]", i/ReduceChunk)
				}
				return acc
			},
			func(a, b string) string { return a + b })
	}
	ref := run(1)
	if ref != "[0][1][2][3]" {
		t.Fatalf("unexpected reference %q", ref)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		if got := run(workers); got != ref {
			t.Fatalf("workers=%d: %q != %q", workers, got, ref)
		}
	}
}

func TestReduceEmpty(t *testing.T) {
	got := Reduce(4, 0, -1, func(acc, i int) int { return 0 }, func(a, b int) int { return 0 })
	if got != -1 {
		t.Errorf("empty reduce returned %d, want identity", got)
	}
}
