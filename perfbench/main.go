// Command perfbench is the repository benchmark: it runs one named workload
// against the library and the partd HTTP API from a single process, checks
// every output, and prints its metrics as one JSON line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// records spans around the calls into each module and reports the
// per-layer metrics instead. Every workload reports every metric name of
// its kind; a layer the workload never calls reports 0. The process exits
// non-zero when any output check fails. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	toy     bool   // toy-size inputs for the smoke test
	out     string // directory for trace files; "" writes none
}

// workload is one named input set and the code that drives it.
type workload struct {
	name string
	why  string
	run  func(cfg config, r *run) error
}

var workloads = []workload{
	{"vcycle-rgg1m", "1M-node RGG, multilevel-fm, 8 parts, Workers=2: loads multilevel coarsening and contraction, parallel FM, LP and par; the no-regression control for power-law coarsener changes", runRGG1M},
	{"vcycle-powerlaw100k", "100k-node power-law graph, multilevel-kl, 8 parts, Workers=2: dense coarse levels make the KL climb and FM refinement dominate wall time (the power-law cliff)", runPowerLaw100k},
	{"ga-amr", "the paper's loop: gen.Refine grows a local region, incremental.Repartition repairs it (DKNUX, 80 gens, 320 pop, 16 islands); the only load on partition.Extend*, ga, dpga and incremental", runAMR},
	{"partd-mix", "open-loop partd at 200 req/s over 2 connections: uploads, Zipf jobs mostly cached, evicted misses; loads http, gio parse, hash, store, result cache, engine queue, small V-cycles", runPartd},
}

// run accumulates one run's outcome: operation counts, failures and metrics.
type run struct {
	tr        *tracer
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
}

// fail records one failed operation; the run then exits non-zero.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric value. Names outside the catalog are a bug.
func (r *run) set(name string, v float64) {
	if _, ok := metricByName[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	r.metrics[name] = v
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", defaultSeed, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "measurement time per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := flag.String("out", "", "directory for the trace file of a traced run")
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	res, err := execute(*name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and assembles the result line. Every metric of
// the requested kind is present; the ones the workload did not set are 0.
func execute(name string, cfg config) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	r := &run{tr: newTracer(cfg.trace), metrics: map[string]float64{}}
	start := time.Now()
	if err := w.run(cfg, r); err != nil {
		r.fail("%v", err)
	}
	if cfg.trace {
		if err := r.tr.write(cfg.out, name, cfg.seed); err != nil {
			return nil, err
		}
	} else {
		if r.attempted > 0 {
			r.set("ok_rate", float64(r.attempted-r.failed)/float64(r.attempted))
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d trace=%v: %d ops, %d failed, %.1fs wall\n",
		name, cfg.seed, cfg.trace, r.attempted, r.failed, time.Since(start).Seconds())

	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	kind := endToEnd
	if cfg.trace {
		kind = perLayer
	}
	for _, m := range catalog {
		if m.kind == kind {
			res.Metrics[m.name] = metricValue{Value: r.metrics[m.name], Unit: m.unit}
		}
	}
	return res, nil
}
