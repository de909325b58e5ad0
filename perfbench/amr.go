package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/algo"
	"repro/internal/dpga"
	"repro/internal/ga"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incremental"
	"repro/internal/partition"
)

const (
	amrBase  = 183 // gen.PaperGraph size the loop starts from
	amrParts = 8
	amrGrow  = 3 // nodes gen.Refine adds per step
	// amrStepsPerSecond sets the step count from --seconds: the loop is a
	// fixed sequence, not a timed one, so that its summed cut and moved
	// fraction repeat exactly at one seed. At ~0.28 s per step on two cores
	// a 10 s run makes 100 steps, enough for 10 samples beyond p90.
	amrStepsPerSecond = 10
	// amrSeedCopies is incremental.Config's default SeedCopies, which the
	// traced run's dpga replication must match.
	amrSeedCopies = 8
	// amrSampleEvery picks the steps the traced run re-runs at EvalWorkers=1
	// and through dpga directly.
	amrSampleEvery = 10
)

// amrStep is one sampled step kept for the traced run's replays.
type amrStep struct {
	grown    *graph.Graph
	old, got *partition.Partition
	opts     algo.Options
	wall     time.Duration
}

// runAMR partitions the paper mesh with DKNUX (set-up, seven times; setup_s
// is their median), then repeats: grow a local region with gen.Refine
// (untimed), repair the partition with incremental.Repartition at the
// paper's defaults (timed).
func runAMR(cfg config, r *run) error {
	steps := int(math.Round(amrStepsPerSecond * cfg.seconds))
	initial := algo.Options{Parts: amrParts, Seed: cfg.seed, EvalWorkers: benchWorkers}
	// Zero GA fields select the paper defaults: 80 generations, population
	// 320, 16 islands.
	inc := algo.Options{Parts: amrParts, EvalWorkers: benchWorkers}
	if cfg.toy {
		steps = 4
		initial.Generations, initial.PopSize, initial.Islands = 20, 64, 4
		inc.Generations, inc.PopSize, inc.Islands = 10, 64, 4
	}

	var g *graph.Graph
	var p *partition.Partition
	var setups []float64
	for i := 0; i < 7; i++ {
		t := time.Now()
		g = gen.PaperGraph(amrBase)
		r.attempted++
		var err error
		p, err = algo.Run(g, "dknux", initial)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("initial dknux: %w", err)
		}
		if _, err := checkPartition(g, p, amrParts, p.CutSize(g)); err != nil {
			return fmt.Errorf("initial dknux: %w", err)
		}
	}
	r.set("setup_s", median(setups))

	rng := rand.New(rand.NewSource(cfg.seed))
	var walls, extend []float64
	var bytes, cutSum, balance float64
	moved, old := 0, 0
	var samples []amrStep
	for step := 0; step < steps; step++ {
		id := r.tr.begin("gen.Refine", step, -1)
		grown := gen.Refine(g, amrGrow, rng)
		r.tr.end(id)
		o := inc
		o.Seed = cfg.seed + int64(step)
		if cfg.trace {
			t := time.Now()
			id := r.tr.begin("partition.Extend", step, -1)
			extensions(p, grown, o.Seed)
			r.tr.end(id)
			extend = append(extend, float64(time.Since(t).Nanoseconds())/1e6)
		}

		r.attempted++
		a0 := allocated()
		id = r.tr.begin("incremental.Repartition", step, -1)
		t := time.Now()
		next, err := incremental.Repartition(grown, p, incremental.Config{Options: o})
		wall := time.Since(t)
		r.tr.end(id)
		bytes += float64(allocated() - a0)
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		walls = append(walls, float64(wall.Nanoseconds())/1e6)
		vd, err := checkPartition(grown, next, amrParts, next.CutSize(grown))
		if err != nil {
			r.fail("step %d: %v", step, err)
		}
		if step%amrSampleEvery == 0 {
			samples = append(samples, amrStep{grown, p, next, o, wall})
		}
		cutSum += vd.cut
		balance = max(balance, vd.balance)
		moved += incremental.MovedNodes(p, next)
		old += len(p.Assign)
		g, p = grown, next
	}

	if !cfg.trace {
		r.set("op_p50_ms", median(walls))
		r.set("op_tail_ms", quantile(walls, 0.9))
		r.set("goodput_per_s", float64(steps-r.failed)/(sum(walls)/1e3))
		r.set("alloc_mb", bytes/float64(steps)/mb)
		r.set("cut", cutSum)
		r.set("balance", balance)
		return nil
	}

	r.set("incremental.moved_frac", float64(moved)/float64(old))
	r.set("gen.refine_ms", median(r.tr.ms("gen.Refine")))
	r.set("partition.extend_ms", median(extend))
	// Replays of the sampled steps: untraced at the same width (tracing
	// overhead), at EvalWorkers=1 (evaluation speedup), and through
	// dpga.New/Model.Run directly (per-generation cost and convergence).
	// Each must reproduce the step's partition.
	var tracedWall, untracedWall, serialWall time.Duration
	var genMS, converge []float64
	for i, s := range samples {
		r.attempted += 3
		t := time.Now()
		again, err := incremental.Repartition(s.grown, s.old, incremental.Config{Options: s.opts})
		untracedWall += time.Since(t)
		tracedWall += s.wall
		if err != nil || !sameAssign(again, s.got) {
			r.fail("sample %d: untraced replay differs (%v)", i, err)
		}
		o := s.opts
		o.EvalWorkers = 1
		t = time.Now()
		serial, err := incremental.Repartition(s.grown, s.old, incremental.Config{Options: o})
		serialWall += time.Since(t)
		if err != nil || !sameAssign(serial, s.got) {
			r.fail("sample %d: EvalWorkers=1 replay differs (%v)", i, err)
		}
		best, gens, perGen, err := replayDPGA(r, i, s)
		if err != nil || !sameAssign(best, s.got) {
			r.fail("sample %d: dpga replay differs (%v)", i, err)
			continue
		}
		genMS = append(genMS, perGen)
		converge = append(converge, float64(gens))
	}
	r.set("trace.overhead", tracedWall.Seconds()/untracedWall.Seconds())
	r.set("dpga.speedup_eval", serialWall.Seconds()/untracedWall.Seconds())
	r.set("dpga.gen_ms", median(genMS))
	r.set("dpga.converge_gen", median(converge))
	return nil
}

// extensions builds the seed partitions incremental.Repartition starts its
// population from — the majority-neighbor extension and SeedCopies
// balance-repaired random ones, drawn from an RNG seeded with the step's
// seed exactly as Repartition draws them.
func extensions(old *partition.Partition, grown *graph.Graph, seed int64) []*partition.Partition {
	rng := rand.New(rand.NewSource(seed))
	seeds := []*partition.Partition{partition.ExtendMajorityNeighbor(old, grown)}
	for i := 0; i < amrSeedCopies; i++ {
		seeds = append(seeds, partition.ExtendRandomBalanced(old, grown, rng))
	}
	return seeds
}

// replayDPGA re-runs one sampled step's island model through dpga.New and
// Model.Run with the configuration incremental.Repartition builds. It
// returns the best partition, the first generation whose best fitness
// equals the final best, and the wall time per generation in ms.
func replayDPGA(r *run, sample int, s amrStep) (*partition.Partition, int, float64, error) {
	o := s.opts
	gens, pop, islands := o.Generations, o.PopSize, o.Islands
	if gens == 0 {
		gens, pop, islands = 80, 320, 16
	}
	seeds := extensions(s.old, s.grown, o.Seed)
	m, err := dpga.New(s.grown, dpga.Config{
		Base: ga.Config{
			Parts:       o.Parts,
			PopSize:     pop,
			Seeds:       seeds,
			EvalWorkers: o.EvalWorkers,
			Seed:        o.Seed,
		},
		Islands:          islands,
		CrossoverFactory: func(island int) ga.Crossover { return ga.NewDKNUX(seeds[island%len(seeds)]) },
	})
	if err != nil {
		return nil, 0, 0, err
	}
	id := r.tr.begin("dpga.Model.Run", sample, -1)
	t := time.Now()
	best := m.Run(gens)
	wall := time.Since(t)
	r.tr.end(id)
	series := m.BestFitnessSeries()
	first := len(series) - 1
	for first > 0 && series[first-1] == series[len(series)-1] {
		first--
	}
	return best.Part, first, float64(wall.Nanoseconds()) / 1e6 / float64(gens), nil
}
