// The colored boundary sweep: the uncoarsening-phase refiner of the
// multilevel pipeline, parallelized without giving up the repository-wide
// Workers determinism contract. It runs under two move rules — the fitness
// climb (HillClimbColored) and size-constrained label propagation
// (LabelPropagate) — which share everything except how a class member's
// move is chosen and how a class commits.
//
// The serial climb (HillClimbEval) visits the boundary in ascending node
// order and takes each node's best strictly-improving move immediately, so
// every decision depends on all earlier ones — an inherently sequential
// chain. The colored sweep breaks the chain where it is provably slack: each
// pass walks the boundary in index-contiguous tiles, and a deterministic
// coloring of each tile's induced subgraph (par.Color: greedy coloring in
// descending hashed-id priority, the closed form of Jones–Plassmann) splits
// the tile into color classes with no internal edges, so within a class no
// committed move can change another member's neighborhood. That makes the
// expensive per-node work — the O(deg) scan gathering each member's edge
// weight into every neighboring part, and the rule's score of those
// candidates — a pure function of the class-start state, evaluated in
// parallel over par-owned index ranges. Commits then replay serially within
// the class in the rule's order against the *current* part weights (and
// cuts), so the partition.Eval aggregates stay exact move by move.
//
// The climb commits in descending provisional-gain order (biggest
// class-start winner first, ascending node id on ties) and takes a move only
// if it strictly improves the fitness at commit time, so it is the serial
// climb run over a deterministic permutation of each pass's boundary —
// (tile, color, gain) order instead of pure index order — which preserves
// its properties (monotone fitness, convergence to a single-move local
// optimum; at tile size 1 it IS the serial climb bit for bit) while
// exposing class-sized batches of gain evaluation to the worker pool. Label
// propagation commits in ascending node order under a live part-weight cap.
// Either way the result is a pure function of the inputs: the worker count
// changes only which goroutine scores which class member, never a decision
// — pinned by the width bit-identity and golden tests in this package and
// downstream in multilevel and algo.
package kl

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/partition"
)

// sweepPool recycles sweep scratch across sweeps of both move rules: the
// multilevel uncoarsening phase runs several per level, and the O(n) bIndex
// plus the tile/class buffers otherwise reallocate at every one. Pooled
// state never changes results: every buffer is either fully rewritten before
// it is read (members, cands, off, ...), restored to its zero invariant by
// the previous sweep (bIndex), or explicitly reset on checkout (the class
// stamps).
var sweepPool = sync.Pool{New: func() any { return new(sweep) }}

// HillClimbColored performs boundary hill climbing with the colored parallel
// sweep described above, spreading gain evaluation over cfg.Workers
// goroutines (<= 0 selects GOMAXPROCS; every width yields bit-identical
// results). Like HillClimbEval it climbs until no move improves
// cfg.Objective or cfg.MaxPasses passes complete (<= 0 means unlimited),
// keeps ev exactly in sync, and returns the number of moves made. A nil ev
// is rebuilt from p; boundary tracking is enabled on ev if it is not
// already. A non-nil cfg.Stop is polled before each pass, and the climb
// returns its move count so far once it reports true. Pass boundaries are
// consistent states (ev stays exactly in sync with p), so an early return
// is a valid — just less refined — partition.
//
// The visit order within a pass is (tile, color class, descending
// provisional gain) rather than the serial climb's pure ascending order, so
// the two climbers are distinct (deterministic) algorithms that converge to
// local optima of equal character but not necessarily bit-equal partitions. The GA's
// offspring climbing keeps the serial sweep; the multilevel uncoarsening
// phase and the flat kl/fm registry algorithms use this one.
func HillClimbColored(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	s := sweepPool.Get().(*sweep)
	defer sweepPool.Put(s)
	return s.hillClimb(g, p, ev, cfg)
}

func (s *sweep) hillClimb(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	ev = boundaryEval(g, p, ev, cfg.Workers)
	if cfg.Objective == partition.CommVolume && !ev.TracksCommVol() {
		ev.ResetCommVolPar(g, p, cfg.Workers)
	}
	s.climb.o = cfg.Objective
	s.climb.avg = g.TotalNodeWeight() / float64(p.Parts)
	return s.run(g, p, ev, cfg, &s.climb)
}

// lpBalance caps every part's weight under label propagation at
// (1+lpBalance) times the ideal (total node weight / parts).
const lpBalance = 0.02

// LabelPropagate refines p with greedy size-constrained label propagation,
// the cheap refiner of the multilevel pipeline's million-node levels, in the
// style of KaMinPar's LP refinement (Gottesbüren et al. '21). Each pass runs
// the colored sweep once and moves every boundary node to the neighboring
// part it is most strongly connected to, provided that strictly beats its
// connection to its own part — so every move strictly reduces the total
// edge cut — and the target stays under (1+0.02) times the ideal part
// weight, checked against the live weights at commit time. Moves may only
// shrink a part that is over the cap, never push one over it; draining
// inherited imbalance is Rebalance's job. LP needs no gain heaps or
// connectivity tables: O(deg) per boundary node.
//
// cfg.MaxPasses caps the passes (<= 0 selects 16, a safety bound — LP
// converges in a handful), and cfg.Workers and cfg.Stop behave as in
// HillClimbColored. cfg.Objective is ignored: the objective driven down is
// always the total cut, the only one whose gain is O(deg) at the levels LP
// runs on. ev is kept exactly in sync (a nil ev is rebuilt from p, and
// boundary tracking is enabled if it is off); the number of moves made is
// returned.
func LabelPropagate(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	s := sweepPool.Get().(*sweep)
	defer sweepPool.Put(s)
	return s.labelPropagate(g, p, ev, cfg)
}

func (s *sweep) labelPropagate(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config) int {
	ev = boundaryEval(g, p, ev, cfg.Workers)
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 16
	}
	return s.run(g, p, ev, cfg, lpRule{maxLoad: g.TotalNodeWeight() / float64(p.Parts) * (1 + lpBalance)})
}

// boundaryEval returns ev with boundary tracking enabled, building it from p
// by the sharded parallel scan when ev is nil.
func boundaryEval(g *graph.Graph, p *partition.Partition, ev *partition.Eval, workers int) *partition.Eval {
	if ev == nil {
		return partition.NewEvalBoundaryPar(g, p, workers)
	}
	if !ev.TracksBoundary() {
		ev.ResetBoundaryPar(g, p, workers)
	}
	return ev
}

// moveRule is what distinguishes the sweep's two uses. The sweep gathers
// every class member's candidates in parallel and hands each to score; it
// then hands the whole class to commit.
type moveRule interface {
	// score returns class member j's (node v's) provisional move, read
	// from its candidates (s.candsOf(j)) and weights (s.wFrom[j],
	// s.wTot[j]). It runs in the parallel phase, so it may read only
	// class-start state.
	score(s *sweep, j, v int) provMove
	// commit applies the class's moves serially through s.ev, in the
	// rule's order and under its acceptance test, and returns how many it
	// made.
	commit(s *sweep, members []int32) int
}

// provMove is a class member's provisional best move against the
// class-start state: the target part (-1 if none) and the rule's score of
// moving there.
type provMove struct {
	to    int32
	score float64
}

// moveCand is one candidate destination of a class member: the target part
// and the total weight of the member's edges into it, accumulated in
// first-seen neighbor order (matching the serial climb's candidate order and
// tie-breaking).
type moveCand struct {
	to  int32
	wTo float64
}

// classScratch is one worker's per-part dedup scratch for candidate
// accumulation; rows are invalidated by bumping the stamp, never by zeroing.
type classScratch struct {
	seen  []int32 // seen[q] == stamp: part q already has a candidate slot
	idx   []int32 // its index within the node's candidate range
	stamp int32
}

// sweep carries the state of one colored sweep. All slices are scratch
// reused across classes, passes and (through sweepPool) sweeps.
type sweep struct {
	g       *graph.Graph
	p       *partition.Partition
	ev      *partition.Eval
	workers int

	classes Classes // per-tile coloring + class grouping (shared with package fm)

	off     []int32 // candidate range start per class member (degree-prefix)
	cnt     []int32 // candidates actually produced
	wFrom   []float64
	wTot    []float64
	prov    []provMove // each class member's provisional move
	cands   []moveCand
	scratch []classScratch

	bsnap []int // per-pass boundary snapshot buffer

	climb climbRule // the climb's rule state, pooled with the sweep
}

// run sweeps until a pass moves nothing, cfg.MaxPasses passes complete
// (<= 0 means unlimited) or cfg.Stop reports true, and returns the number of
// moves made.
func (s *sweep) run(g *graph.Graph, p *partition.Partition, ev *partition.Eval, cfg Config, r moveRule) int {
	s.g, s.p, s.ev = g, p, ev
	s.workers = par.Workers(cfg.Workers)
	// Pooled class scratch carries stamps from earlier sweeps; restart them
	// so a long-lived process can never wrap a stamp into a stale seen entry
	// (and rebuild a scratch sized for fewer workers or parts).
	if len(s.scratch) < s.workers || len(s.scratch[0].seen) < p.Parts {
		s.scratch = make([]classScratch, s.workers)
		for w := range s.scratch {
			s.scratch[w] = classScratch{seen: make([]int32, p.Parts), idx: make([]int32, p.Parts)}
		}
	}
	for w := range s.scratch {
		sc := &s.scratch[w]
		clear(sc.seen)
		sc.stamp = 1
	}
	moves := 0
	for pass := 0; cfg.MaxPasses <= 0 || pass < cfg.MaxPasses; pass++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		m := s.pass(r)
		moves += m
		if m == 0 {
			break
		}
	}
	s.g, s.p, s.ev = nil, nil, nil
	return moves
}

// tileSize is the number of consecutive boundary nodes one colored tile
// spans. Tiles are processed sequentially in ascending index order and only
// a tile's interior is class-batched, so the sweep's decision order tracks
// the serial climb's ascending sweep at tile granularity — cascades of
// improving moves propagate tile to tile within a single pass, which is
// what keeps the colored climb's quality at the serial climb's level. The
// size is a fixed constant (never derived from the worker count): the tile
// grid is part of the algorithm's definition, so every width sweeps the
// identical order.
const tileSize = 512

// pass snapshots the boundary and sweeps it in ascending index order, one
// tile at a time: each tile's induced subgraph is colored, and its color
// classes are swept in ascending color order. Adjacent nodes in different
// tiles are never evaluated concurrently (tiles run sequentially), so only
// intra-tile adjacency needs coloring. It returns the number of moves.
func (s *sweep) pass(r moveRule) int {
	s.bsnap = s.ev.AppendBoundary(s.bsnap)
	b := s.bsnap // ascending snapshot
	moves := 0
	for lo := 0; lo < len(b); lo += tileSize {
		members, off := s.classes.Group(s.g, b[lo:min(lo+tileSize, len(b))])
		for cl := 0; cl < len(off)-1; cl++ {
			moves += s.sweepClass(members[off[cl]:off[cl+1]], r)
		}
	}
	return moves
}

// sweepClass gathers every class member's candidate moves and scores them
// in parallel against the class-start state — legal because class members
// share no edge, so a member's neighborhood is untouched until its own
// commit slot — then lets the rule commit the class serially.
func (s *sweep) sweepClass(members []int32, r moveRule) int {
	m := len(members)
	s.off = ensure(s.off, m+1)
	s.cnt = ensure(s.cnt, m)
	s.wFrom = ensure(s.wFrom, m)
	s.wTot = ensure(s.wTot, m)
	s.prov = ensure(s.prov, m)
	s.off[0] = 0
	for j, v := range members {
		s.off[j+1] = s.off[j] + int32(len(s.g.Neighbors(int(v))))
	}
	s.cands = ensure(s.cands, int(s.off[m]))
	assign := s.p.Assign
	// Tiny classes run inline: the evaluation is a pure function into
	// index-owned slots either way (so the cutoff cannot change results),
	// and goroutine handoff would cost more than the work itself.
	workers := s.workers
	if m < 32 {
		workers = 1
	}
	par.For(workers, m, func(worker, lo, hi int) {
		sc := &s.scratch[worker]
		for j := lo; j < hi; j++ {
			v := int(members[j])
			from := assign[v]
			base := int(s.off[j])
			k := int32(0)
			var wf, wt float64
			ws := s.g.EdgeWeights(v)
			for i, u := range s.g.Neighbors(v) {
				w := ws[i]
				wt += w
				q := assign[u]
				if q == from {
					wf += w
					continue
				}
				if sc.seen[q] != sc.stamp {
					sc.seen[q] = sc.stamp
					sc.idx[q] = k
					s.cands[base+int(k)] = moveCand{to: int32(q), wTo: w}
					k++
				} else {
					s.cands[base+int(sc.idx[q])].wTo += w
				}
			}
			sc.stamp++
			s.cnt[j] = k
			s.wFrom[j] = wf
			s.wTot[j] = wt
			s.prov[j] = r.score(s, j, v)
		}
	})
	return r.commit(s, members)
}

// candsOf returns class member j's candidates in first-seen neighbor order.
func (s *sweep) candsOf(j int) []moveCand {
	return s.cands[s.off[j] : s.off[j]+s.cnt[j]]
}

// climbRule is the fitness climb: score by the best gain under o against
// the class-start aggregates, commit in descending provisional-gain order
// (ascending node id on ties), each member taking its best strictly
// improving move against the live aggregates.
//
// The provisional gain is computed in the parallel phase, so ordering by it
// costs no extra serial work, and it is a pure function of class-start
// state, so the commit order is width-independent like everything else
// here. Committing big winners first harvests more of a class's gain before
// the members' moves interact (the same greedy order FM's heap imposes
// globally); commitBest still re-evaluates every candidate against the live
// aggregates at its commit slot, so correctness and the strict-improvement
// rule are unchanged — only the order in which members get their slot.
type climbRule struct {
	o     partition.Objective
	avg   float64
	order []int32 // class commit order (provisional gain desc, id asc)
}

func (r *climbRule) score(s *sweep, j, v int) provMove {
	wf, wt := s.wFrom[j], s.wTot[j]
	best := provMove{to: -1, score: math.Inf(-1)}
	for _, cd := range s.candsOf(j) {
		wOther := wt - wf - cd.wTo
		if fit := s.ev.MoveGainFromWeights(s.g, s.p, r.o, r.avg, v, int(cd.to), wf, cd.wTo, wOther); fit > best.score {
			best = provMove{to: cd.to, score: fit}
		}
	}
	return best
}

func (r *climbRule) commit(s *sweep, members []int32) int {
	// Members are ascending within a class, so comparing the j indices is
	// the id tie-break; the order is total (indices are distinct), hence
	// one fixed point for the sort and any width.
	r.order = ensure(r.order, len(members))
	for j := range r.order {
		r.order[j] = int32(j)
	}
	slices.SortFunc(r.order, func(ja, jb int32) int {
		if d := cmp.Compare(s.prov[jb].score, s.prov[ja].score); d != 0 {
			return d
		}
		return cmp.Compare(ja, jb)
	})
	moves := 0
	for _, j := range r.order {
		if r.commitBest(s, int(j), int(members[j])) {
			moves++
		}
	}
	return moves
}

// commitBest folds class member j's precomputed edge-weight triples with the
// current aggregates through the shared gain definition
// (partition.Eval.MoveGainFromWeights), picks the best strictly-improving
// destination with the serial climb's exact tie rules (candidates in
// first-seen neighbor order, strict improvement only), and applies it through
// ev so the aggregates and boundary stay exact.
//
// The precomputed weight triples are still valid here even though earlier
// members of the class may have moved: class members share no edge, so a
// member's neighborhood is untouched until its own commit slot. The
// CommVolume gain ignores the triples and rescans v's neighbor counts inside
// MoveGainFromWeights — against the Eval's current state, which is exactly
// the serial semantics (and still sound under the no-shared-edge guarantee).
func (r *climbRule) commitBest(s *sweep, j, v int) bool {
	wf, wt := s.wFrom[j], s.wTot[j]
	bestTo := -1
	var bestFit float64
	for _, cd := range s.candsOf(j) {
		to := int(cd.to)
		wOther := wt - wf - cd.wTo
		fit := s.ev.MoveGainFromWeights(s.g, s.p, r.o, r.avg, v, to, wf, cd.wTo, wOther)
		if fit > 1e-12 && (bestTo < 0 || fit > bestFit) {
			bestTo, bestFit = to, fit
		}
	}
	if bestTo < 0 {
		return false
	}
	s.ev.Move(s.g, s.p, v, bestTo)
	return true
}

// lpRule is label propagation: score by the label vote (the most strongly
// connected foreign part, first-seen order breaking ties, kept only if it
// strictly beats the home part), commit in ascending node order each vote
// whose target stays under maxLoad with the live part weights (earlier
// commits in the class may have filled it).
type lpRule struct {
	maxLoad float64
}

func (lpRule) score(s *sweep, j, _ int) provMove {
	best := provMove{to: -1, score: s.wFrom[j]}
	for _, cd := range s.candsOf(j) {
		if cd.wTo > best.score {
			best = provMove{to: cd.to, score: cd.wTo}
		}
	}
	return best
}

func (r lpRule) commit(s *sweep, members []int32) int {
	moves := 0
	for j, v := range members {
		to := s.prov[j].to
		if to < 0 || s.ev.Weights[to]+s.g.NodeWeight(int(v)) > r.maxLoad {
			continue
		}
		s.ev.Move(s.g, s.p, int(v), int(to))
		moves++
	}
	return moves
}

// rebalCand is a candidate of the parallel rebalance argmax; the total order
// (score descending, node id ascending) makes the reduction independent of
// both visit order and worker count.
type rebalCand struct {
	v     int
	score float64
}

func betterRebal(a, b rebalCand) rebalCand {
	if b.v < 0 {
		return a
	}
	if a.v < 0 || b.score > a.score || (b.score == a.score && b.v < a.v) {
		return b
	}
	return a
}

// ensure returns s resliced to length n, reallocating only when its
// capacity is short; the contents are stale and must be rewritten.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
