// Package kl provides local refinement of partitions by boundary migration,
// the hill climbing of the paper's §3.6 ("only the boundary points of each
// part are examined to see if migrating them to the appropriate neighboring
// part improves fitness").
//
// The boundary climb comes in two distinct deterministic algorithms: the
// serial HillClimb/HillClimbEval, the GA's offspring climber, and the
// colored HillClimbColored (colored.go), the multilevel and flat-kl climber.
// The colored sweep also runs size-constrained label propagation
// (LabelPropagate), the multilevel refiner of million-node levels, as a
// second move rule. Refine chains the colored climb with Rebalance; the
// colored sweep and Refine take one Config (objective, passes, workers,
// stop), and Rebalance is one function at every worker width.
package kl

import (
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// HillClimb performs steepest-descent boundary migration on p in place until
// no single-node move improves the fitness o, or maxPasses passes complete
// (maxPasses <= 0 means unlimited). It returns the number of moves made.
//
// Each pass scans the boundary nodes; for each, it evaluates moving the node
// to every neighboring part and takes the best strictly-improving move. This
// is exactly the paper's hill-climbing step: offspring are driven to the
// nearest local optimum of the fitness function. Move deltas are computed
// incrementally in O(deg(v) + parts), not by re-evaluating the fitness, so
// the GA can afford hill climbing on every offspring.
func HillClimb(g *graph.Graph, p *partition.Partition, o partition.Objective, maxPasses int) int {
	return HillClimbEval(g, p, o, maxPasses, partition.NewEval(g, p))
}

// HillClimbEval is HillClimb for callers that already hold the partition's
// cached aggregates (the GA engine keeps one Eval per individual): it skips
// the O(V+E) setup scan and keeps ev in sync with every move it makes, so
// the caller can read the final fitness straight from ev. A nil ev is
// rebuilt from p (equivalent to HillClimb).
func HillClimbEval(g *graph.Graph, p *partition.Partition, o partition.Objective, maxPasses int, ev *partition.Eval) int {
	if ev == nil {
		ev = partition.NewEval(g, p)
	}
	if o == partition.CommVolume && !ev.TracksCommVol() {
		ev.EnableCommVol(g, p)
	}
	c := &climber{
		g:   g,
		p:   p,
		o:   o,
		ev:  ev,
		avg: g.TotalNodeWeight() / float64(p.Parts),
	}
	return c.climb(maxPasses)
}

func (c *climber) climb(maxPasses int) int {
	moves := 0
	for pass := 0; maxPasses <= 0 || pass < maxPasses; pass++ {
		improved := false
		for _, v := range c.boundary() {
			if c.tryBestMove(v) {
				moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return moves
}

// boundary snapshots the boundary at pass start: from the Eval's tracked set
// in O(b log b) when available, otherwise by the O(V+E) scan. Both yield the
// boundary nodes in increasing order, so the climb visits identical nodes in
// identical order either way — tracking changes the cost, never the result.
func (c *climber) boundary() []int {
	if c.ev.TracksBoundary() {
		return c.ev.Boundary()
	}
	return c.p.BoundaryNodes(c.g)
}

// climber walks a partition together with its cached per-part weights and
// cuts (partition.Eval) so single-node move deltas are incremental.
type climber struct {
	g   *graph.Graph
	p   *partition.Partition
	o   partition.Objective
	ev  *partition.Eval
	avg float64
}

// moveDelta returns the fitness improvement of moving v to part `to`,
// computed through the objective-parameterized gain definition shared by
// every refiner (partition.Eval.MoveGain).
func (c *climber) moveDelta(v, to int) float64 {
	return c.ev.MoveGain(c.g, c.p, c.o, c.avg, v, to)
}

// tryBestMove moves v to the neighboring part that most improves fitness, if
// any strictly does, updating the cached state. Candidate parts are examined
// in neighbor order (ties go to the earliest), keeping the climb fully
// deterministic. The winning move is applied through Eval.Move so the
// aggregates — and the boundary set, when tracked — stay exact.
func (c *climber) tryBestMove(v int) bool {
	from := int(c.p.Assign[v])
	var tried [8]int // dedup scratch; spills to append for high-degree nodes
	cand := tried[:0]
	bestTo := -1
	var bestFit float64
scan:
	for _, u := range c.g.Neighbors(v) {
		to := int(c.p.Assign[u])
		if to == from {
			continue
		}
		for _, q := range cand {
			if q == to {
				continue scan
			}
		}
		cand = append(cand, to)
		fit := c.moveDelta(v, to)
		if fit > 1e-12 && (bestTo < 0 || fit > bestFit) {
			bestTo, bestFit = to, fit
		}
	}
	if bestTo < 0 {
		return false
	}
	c.ev.Move(c.g, c.p, v, bestTo)
	return true
}

// Config parameterizes the colored sweep under both move rules
// (HillClimbColored, LabelPropagate) and Refine; LabelPropagate ignores
// Objective.
type Config struct {
	// Objective selects the cost the climb's gains target; the zero value
	// is TotalCut.
	Objective partition.Objective
	// MaxPasses caps the number of sweep passes; <= 0 means until a pass
	// moves no node (LabelPropagate: 16).
	MaxPasses int
	// Workers bounds the goroutines of the colored gain evaluation and the
	// rebalance argmax (<= 0 selects GOMAXPROCS); a pure speed knob: every
	// width yields bit-identical results.
	Workers int
	// Stop, when non-nil, is polled before each pass; a climb whose Stop
	// reports true returns early, and Refine then skips its rebalance too —
	// the caller asked for "soonest consistent state", and every pass
	// boundary is one (the climb only ever applies complete, eval-synced
	// moves).
	Stop func() bool
}

// Refine improves a k-way partition by running the colored boundary climb
// (HillClimbColored), then rebalancing if hill climbing skewed part weights
// (Rebalance). It keeps ev exactly in sync with every move it makes, so a
// caller can chain refinements — the multilevel pipeline projects one Eval
// down its whole uncoarsening hierarchy this way, because projection changes
// neither part weights nor part cuts. A nil ev is rebuilt from p (by the
// sharded parallel scan) with boundary tracking enabled, so even the flat
// path pays the full-graph scan once instead of once per pass.
func Refine(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) {
	ev = boundaryEval(g, p, ev, cfg.Workers)
	HillClimbColored(g, p, ev, cfg)
	if cfg.Stop != nil && cfg.Stop() {
		return
	}
	Rebalance(g, p, ev, cfg.Objective, cfg.Workers)
}

// Rebalance enforces the node-weight balance invariant on p without any
// cut-improving ambition: it exists so refiners that tolerate transient
// imbalance (FM's slack, label propagation, projections from weighted
// coarse graphs) can restore the contract afterwards. It moves cheapest
// boundary nodes out of overweight parts until no part exceeds the ideal
// weight W/k by more than the heaviest single node — the resolution limit of
// single-node moves, and exactly the old "ideal count + 1" rule on unit
// weights. Balancing weight rather than node count is what makes the coarse
// levels of the multilevel pipeline (where node weights are member counts)
// and weighted workloads come out right. ev must track the boundary (it
// panics otherwise): its aggregates supply the part weights and are kept in
// sync with every move, and each move's argmax over the tracked boundary
// set is reduced over `workers` goroutines (<= 0 selects GOMAXPROCS). The
// scan's total order (score descending, node id ascending) plus
// par.Reduce's fixed chunk grid make the winner independent of visit order
// and width, so every width picks exactly the node a serial scan picks.
// The objective selects the node-cost model: the cut objectives score a
// candidate by edge weight (edges gained into the destination minus edges
// left behind), CommVolume by the negated volume delta of the move when the
// Eval tracks per-(node, part) counts.
func Rebalance(g *graph.Graph, p *partition.Partition, ev *partition.Eval, o partition.Objective, workers int) {
	if !ev.TracksBoundary() {
		panic("kl: Rebalance called on Eval without boundary tracking")
	}
	n := g.NumNodes()
	ideal := g.TotalNodeWeight() / float64(p.Parts)
	var maxNodeW float64
	for v := 0; v < n; v++ {
		if w := g.NodeWeight(v); w > maxNodeW {
			maxNodeW = w
		}
	}
	weights := ev.Weights
	for iter := 0; iter < n; iter++ {
		over, under := -1, -1
		for q, w := range weights {
			if w > ideal+maxNodeW && (over < 0 || w > weights[over]) {
				over = q
			}
			if under < 0 || w < weights[under] {
				under = q
			}
		}
		if over < 0 {
			return
		}
		// Cheapest node of part `over` to move to `under`: maximize
		// (edges into under) - (edges inside over). Ties go to the smallest
		// node id, so the pick is deterministic whatever order the boundary
		// is visited in — which lets the tracked set be consumed unsorted and
		// sharded across workers, O(b) per move with no sorting.
		score := func(v int) (float64, bool) {
			if int(p.Assign[v]) != over {
				return 0, false
			}
			if o == partition.CommVolume && ev.TracksCommVol() {
				return -ev.CommVolDelta(g, p, v, under), true
			}
			var s float64
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				switch int(p.Assign[u]) {
				case under:
					s += ws[i]
				case over:
					s -= ws[i]
				}
			}
			return s, true
		}
		best := par.Reduce(workers, ev.BoundaryLen(), rebalCand{v: -1, score: math.Inf(-1)},
			func(acc rebalCand, i int) rebalCand {
				v := ev.BoundaryNode(i)
				s, ok := score(v)
				if !ok {
					return acc
				}
				return betterRebal(acc, rebalCand{v: v, score: s})
			}, betterRebal)
		bestV := best.v
		if bestV < 0 {
			// No boundary node in the overweight part touches anything:
			// move an arbitrary node (disconnected part).
			for v := 0; v < n; v++ {
				if int(p.Assign[v]) == over {
					bestV = v
					break
				}
			}
			if bestV < 0 {
				return
			}
		}
		// The move strictly shrinks the over/under spread, so the loop cannot
		// oscillate: over only triggers when W(over) > ideal + maxNodeW,
		// under never exceeds the ideal (the minimum is at most the mean),
		// and the moved node weighs at most maxNodeW.
		ev.Move(g, p, bestV, under)
	}
}
