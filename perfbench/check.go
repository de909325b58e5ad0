package main

import (
	"fmt"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/partition"
)

// verdict is what the output checks measured on one returned partition.
type verdict struct {
	cut     float64 // brute-force recount
	balance float64 // max part weight / ideal part weight
}

// checkPartition runs the output checks every returned partition must pass:
// it covers g with in-range labels (Validate), has exactly parts non-empty
// parts, is balanced within the registry's contract, and its reported cut
// equals a recount over g's edge list.
func checkPartition(g *graph.Graph, p *partition.Partition, parts int, reportedCut float64) (verdict, error) {
	if err := p.Validate(g); err != nil {
		return verdict{}, err
	}
	if p.Parts != parts {
		return verdict{}, fmt.Errorf("%d parts, want %d", p.Parts, parts)
	}
	w := make([]float64, parts)
	for v, q := range p.Assign {
		w[q] += g.NodeWeight(v)
	}
	heaviest := 0.0
	for q, x := range w {
		if x == 0 {
			return verdict{}, fmt.Errorf("part %d is empty", q)
		}
		heaviest = max(heaviest, x)
	}
	bal := heaviest / (g.TotalNodeWeight() / float64(parts))
	if bal > 1+algo.BalanceTolerance {
		return verdict{}, fmt.Errorf("balance %.4f exceeds 1+%.2f", bal, algo.BalanceTolerance)
	}
	cut := 0.0
	g.Edges(func(u, v int, wt float64) bool {
		if p.Assign[u] != p.Assign[v] {
			cut += wt
		}
		return true
	})
	if cut != reportedCut {
		return verdict{}, fmt.Errorf("reported cut %v, recount %v", reportedCut, cut)
	}
	return verdict{cut: cut, balance: bal}, nil
}

// sameAssign reports whether two partitions assign every node identically.
func sameAssign(a, b *partition.Partition) bool {
	if a.Parts != b.Parts || len(a.Assign) != len(b.Assign) {
		return false
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return false
		}
	}
	return true
}
