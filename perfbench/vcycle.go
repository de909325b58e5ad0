package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// defaultSeed is the suite seed the committed bench artifacts were made
// with: at this seed vcycle-rgg1m partitions exactly the rgg-1000000-p8
// graph of bench/BENCH_fmpar.json.
const defaultSeed = gen.SuiteSeed

// benchWorkers is the width every library workload runs at: the two cores
// the benchmark is sized for.
const benchWorkers = 2

const vcycleParts = 8

// vcycle describes one V-cycle workload.
type vcycle struct {
	algo      string
	setupReps int  // set-ups per run; setup_s is their median
	warmUp    bool // make an untimed call in each set-up
	// seeds is how many Options.Seeds (the workload seed and the next ones)
	// the timed calls cycle through. The cut is their mean: one V-cycle's
	// cut moves by up to ±15% with the matching order, so a single seed's
	// cut would mostly measure that noise.
	seeds int
	// callsPerSecond sets the number of timed calls from --seconds (at
	// least one per seed). The count is fixed rather than timed so that
	// every run at one --seconds times the same seeds.
	callsPerSecond float64
	graph          func() *graph.Graph // the workload's input, from the seed
	wantCut        float64             // cut the workload seed must give; 0 = no pin
}

func runRGG1M(cfg config, r *run) error {
	n, radius := 1_000_000, 0.0016
	if cfg.toy {
		// Same expected degree as the full-size graph.
		n, radius = 20_000, 0.0016*math.Sqrt(1e6/20_000)
	}
	v := vcycle{
		algo:      "multilevel-fm",
		setupReps: 2,
		warmUp:    true,
		seeds:     5,
		// ~1.5 s per call on two cores: six calls, the workload seed twice.
		callsPerSecond: 0.6,
		// bench.Scale1MSuite's generator; at the default seed the same graph.
		graph: func() *graph.Graph {
			return gen.RandomGeometric(rand.New(rand.NewSource(cfg.seed+int64(n))), n, radius)
		},
	}
	if cfg.seed == defaultSeed && !cfg.toy {
		cut, err := committedCut("rgg-1000000-p8", "multilevel-fm@w1")
		if err != nil {
			return err
		}
		v.wantCut = cut
	}
	return runVCycle(cfg, r, v)
}

func runPowerLaw100k(cfg config, r *run) error {
	n := 100_000
	if cfg.toy {
		n = 5_000
	}
	return runVCycle(cfg, r, vcycle{
		algo:      "multilevel-kl",
		setupReps: 7,
		seeds:     1,
		// ~8 s per call on two cores.
		callsPerSecond: 0.1,
		graph:          func() *graph.Graph { return gen.PowerLaw(n, 4, cfg.seed+int64(n)+1) },
	})
}

// committedCut reads the cut a committed bench artifact recorded for
// (case, algo) from bench/BENCH_fmpar.json, relative to the repository root
// the benchmark runs from.
func committedCut(caseName, algoName string) (float64, error) {
	data, err := os.ReadFile("bench/BENCH_fmpar.json")
	if err != nil {
		return 0, fmt.Errorf("cross-artifact check: %w", err)
	}
	var rep struct {
		Results []struct {
			Case string  `json:"case"`
			Algo string  `json:"algo"`
			Cut  float64 `json:"cut"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return 0, fmt.Errorf("cross-artifact check: %w", err)
	}
	for _, x := range rep.Results {
		if x.Case == caseName && x.Algo == algoName {
			return x.Cut, nil
		}
	}
	return 0, fmt.Errorf("cross-artifact check: no %s/%s row in bench/BENCH_fmpar.json", caseName, algoName)
}

// callResult is one timed algo.Run call.
type callResult struct {
	wall  time.Duration
	bytes uint64
	stats multilevel.Stats
}

// runVCycle generates the input and optionally makes an untimed warm-up
// call (setupReps times, keeping the last), then times a fixed number of
// algo.Run calls cycling through v.seeds Options.Seeds. Every call must pass
// the output checks and return, whatever its width, the first partition its
// Options.Seed produced, bit for bit.
func runVCycle(cfg config, r *run, v vcycle) error {
	optsFor := func(i int) algo.Options {
		return algo.Options{Parts: vcycleParts, Seed: cfg.seed + int64(i%v.seeds), Workers: benchWorkers, EvalWorkers: benchWorkers}
	}
	var g *graph.Graph
	var refs map[int64]*partition.Partition // first partition per Options.Seed
	var setups []float64
	for i := 0; i < v.setupReps; i++ {
		// Drop the previous set-up's graph and pooled scratch before
		// building the next.
		g, refs = nil, map[int64]*partition.Partition{}
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		g = v.graph()
		if v.warmUp {
			r.attempted++
			p, err := algo.Run(g, v.algo, optsFor(0))
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if _, err := checkPartition(g, p, vcycleParts, p.CutSize(g)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			refs[cfg.seed] = p
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups))

	// call makes one checked, timed call; op numbers the call for the trace.
	op := 0
	call := func(o algo.Options, traced bool) callResult {
		var res callResult
		if traced {
			o.MultilevelStats = &res.stats
		}
		op++
		r.attempted++
		// Each call starts from a collected heap with the library's sync.Pool
		// scratch dropped (the second collection empties the pools' victim
		// cache), so its allocation, its GC work and the peak RSS do not
		// depend on where the previous call left the GC cycle.
		runtime.GC()
		runtime.GC()
		id := -1
		if traced {
			id = r.tr.begin("algo.Run", op, -1)
		}
		a0 := allocated()
		t := time.Now()
		p, err := algo.Run(g, v.algo, o)
		res.wall = time.Since(t)
		r.tr.end(id)
		res.bytes = allocated() - a0
		if err != nil {
			r.fail("algo.Run: %v", err)
			return res
		}
		vd, err := checkPartition(g, p, vcycleParts, p.CutSize(g))
		if err != nil {
			r.fail("call %d: %v", op, err)
			return res
		}
		if ref, ok := refs[o.Seed]; !ok {
			refs[o.Seed] = p
		} else if !sameAssign(p, ref) {
			r.fail("call %d (seed %d, workers %d): partition differs from the seed's first", op, o.Seed, o.Workers)
			return res
		}
		if o.Seed == cfg.seed && v.wantCut != 0 && vd.cut != v.wantCut {
			r.fail("call %d: cut %v, committed bench/BENCH_fmpar.json has %v", op, vd.cut, v.wantCut)
			return res
		}
		return res
	}
	calls := max(v.seeds, int(math.Round(v.callsPerSecond*cfg.seconds)))
	timed := func(traced bool) []callResult {
		var out []callResult
		for i := 0; i < calls; i++ {
			out = append(out, call(optsFor(i), traced))
		}
		return out
	}

	if !cfg.trace {
		results := timed(false)
		var walls, bytes []float64
		for _, c := range results {
			walls = append(walls, float64(c.wall.Nanoseconds())/1e6)
			bytes = append(bytes, float64(c.bytes)/mb)
		}
		r.set("op_p50_ms", median(walls))
		r.set("op_tail_ms", quantile(walls, 0.9))
		r.set("goodput_per_s", float64(len(results)-r.failed)/(sum(walls)/1e3))
		r.set("alloc_mb", median(bytes))
		var cuts []float64
		balance := 0.0
		for i := 0; i < v.seeds; i++ {
			p, ok := refs[cfg.seed+int64(i)]
			if !ok {
				return fmt.Errorf("no checked partition for seed %d", cfg.seed+int64(i))
			}
			vd, err := checkPartition(g, p, vcycleParts, p.CutSize(g))
			if err != nil {
				return err
			}
			cuts = append(cuts, vd.cut)
			balance = max(balance, vd.balance)
		}
		r.set("cut", sum(cuts)/float64(len(cuts)))
		r.set("balance", balance)
		return nil
	}

	traced := timed(true)
	// The same number of calls untraced gives the tracing overhead, and up to
	// two calls at Workers=1 the parallel speedup on the same input.
	var untraced []callResult
	for i := range traced {
		untraced = append(untraced, call(optsFor(i), false))
	}
	var serial []callResult
	for i := 0; i < min(2, len(traced)); i++ {
		o := optsFor(i)
		o.Workers, o.EvalWorkers = 1, 1
		serial = append(serial, call(o, true))
	}
	parallel := traced[:len(serial)] // the same seeds at Workers=2
	pick := func(cs []callResult, f func(c callResult) float64) float64 {
		var xs []float64
		for _, c := range cs {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	secs := func(d time.Duration) float64 { return d.Seconds() }
	r.set("multilevel.coarsen_s", pick(traced, func(c callResult) float64 { return secs(c.stats.Coarsen) }))
	r.set("multilevel.coarsen_mb", pick(traced, func(c callResult) float64 { return float64(c.stats.CoarsenBytes) / mb }))
	r.set("multilevel.coarse_solve_s", pick(traced, func(c callResult) float64 { return secs(c.stats.CoarseSolve) }))
	r.set("multilevel.project_s", pick(traced, func(c callResult) float64 { return secs(c.stats.Project) }))
	r.set("multilevel.project_mb", pick(traced, func(c callResult) float64 { return float64(c.stats.ProjectBytes) / mb }))
	r.set("multilevel.refine_s", pick(traced, func(c callResult) float64 { return secs(c.stats.Refine) }))
	r.set("multilevel.refine_mb", pick(traced, func(c callResult) float64 { return float64(c.stats.RefineBytes) / mb }))
	r.set("multilevel.levels", pick(traced, func(c callResult) float64 { return float64(c.stats.Levels) }))
	r.set("kl.climb_s", pick(traced, func(c callResult) float64 { return secs(c.stats.RefineClimb) }))
	r.set("fm.pass_s", pick(traced, func(c callResult) float64 { return secs(c.stats.RefineFM) }))
	r.set("lp.sweep_s", pick(traced, func(c callResult) float64 { return secs(c.stats.RefineLP) }))
	wall := func(c callResult) float64 { return secs(c.wall) }
	r.set("trace.overhead", pick(traced, wall)/pick(untraced, wall))
	r.set("par.speedup_total", pick(serial, wall)/pick(parallel, wall))
	coarsen := func(c callResult) float64 { return secs(c.stats.Coarsen) }
	r.set("par.speedup_coarsen", pick(serial, coarsen)/pick(parallel, coarsen))
	refine := func(c callResult) float64 { return secs(c.stats.Refine) }
	r.set("par.speedup_refine", pick(serial, refine)/pick(parallel, refine))

	// The hierarchy ledger: the same coarsening Partition performs (its RNG
	// is seeded with Options.Seed and coarsening draws from it first).
	id := r.tr.begin("multilevel.BuildHierarchy", 0, -1)
	levels, coarsest := multilevel.BuildHierarchy(g, 64, 30, rand.New(rand.NewSource(cfg.seed)), benchWorkers)
	r.tr.end(id)
	if len(levels) != traced[0].stats.Levels {
		r.fail("BuildHierarchy built %d levels, Partition reported %d", len(levels), traced[0].stats.Levels)
	}
	var ms []float64
	for _, l := range levels {
		r.tr.hierarchy = append(r.tr.hierarchy, level{l.Graph.NumNodes(), l.Graph.NumEdges()})
		ms = append(ms, float64(l.Graph.NumEdges()))
	}
	r.tr.hierarchy = append(r.tr.hierarchy, level{coarsest.NumNodes(), coarsest.NumEdges()})
	ms = append(ms, float64(coarsest.NumEdges()))
	r.set("multilevel.hier_sum_m", sum(ms))
	r.set("multilevel.hier_coarsest_m", ms[len(ms)-1])
	if len(ms) > 1 && ms[len(ms)-1] > 0 {
		// Geometric mean of m_i / m_{i+1} over the levels.
		r.set("multilevel.hier_m_shrink", math.Pow(ms[0]/ms[len(ms)-1], 1/float64(len(ms)-1)))
	}
	return nil
}
