package par

import "slices"

// Merger is the deterministic merge/select primitive under the parallel
// refiners' candidate scheduling: it evaluates one optional candidate per
// index of a parallel loop and hands them back as a single list in a
// caller-defined total order. The zero value is ready to use; the slice
// returned by Collect aliases the scratch and is valid until the next call.
// A Merger is not safe for concurrent use.
type Merger[T any] struct {
	vals []T
	keep []bool
	out  []T
}

// Collect runs gen(i) for every i in [0, n) over `workers` goroutines
// (<= 0 selects GOMAXPROCS), keeping the values for which gen reported true,
// and returns them sorted by cmp (negative: a sorts first, as in
// slices.SortFunc). gen must be a pure function of i and round-start state
// — it may write only locations owned by i plus its own locals — which is
// the standard For contract.
//
// The result is then independent of the worker count and schedule by
// construction: each candidate lands in its index-owned slot, the kept ones
// are compacted serially in ascending index order, and when cmp is a strict
// total order (it returns 0 for no two distinct kept candidates) the sort
// has exactly one fixed point. The parallel FM pass feeds this a
// (gain descending, node id ascending) order, which is total because ids are
// distinct.
func (m *Merger[T]) Collect(workers, n int, gen func(i int) (T, bool), cmp func(a, b T) int) []T {
	if cap(m.vals) < n {
		m.vals = make([]T, n)
		m.keep = make([]bool, n)
	}
	vals, keep := m.vals[:n], m.keep[:n]
	For(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i], keep[i] = gen(i)
		}
	})
	out := m.out[:0]
	for i := 0; i < n; i++ {
		if keep[i] {
			out = append(out, vals[i])
		}
	}
	m.out = out
	slices.SortFunc(out, cmp)
	return out
}
