package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

type metricKind int

const (
	endToEnd metricKind = iota
	perLayer
)

// metric is one catalog entry; BENCHMARK.json lists the same names, units
// and directions (the smoke test holds the two together).
type metric struct {
	name   string
	unit   string
	better string
	kind   metricKind
}

// catalog is every metric the benchmark reports. The end-to-end metrics are
// defined on every workload in terms of its timed operation: one algo.Run
// call (vcycle-*), one incremental.Repartition step (ga-amr), or one HTTP
// request timed from its due time (partd-mix).
var catalog = []metric{
	{"setup_s", "s", "lower", endToEnd},
	{"op_p50_ms", "ms", "lower", endToEnd},
	{"op_tail_ms", "ms", "lower", endToEnd},
	{"goodput_per_s", "1/s", "higher", endToEnd},
	{"cut", "count", "lower", endToEnd},
	{"balance", "ratio", "lower", endToEnd},
	{"alloc_mb", "MB", "lower", endToEnd},
	{"peak_rss_mb", "MB", "lower", endToEnd},
	{"ok_rate", "ratio", "higher", endToEnd},

	{"multilevel.coarsen_s", "s", "lower", perLayer},
	{"multilevel.coarsen_mb", "MB", "lower", perLayer},
	{"multilevel.coarse_solve_s", "s", "lower", perLayer},
	{"multilevel.project_s", "s", "lower", perLayer},
	{"multilevel.project_mb", "MB", "lower", perLayer},
	{"multilevel.refine_s", "s", "lower", perLayer},
	{"multilevel.refine_mb", "MB", "lower", perLayer},
	{"multilevel.levels", "count", "lower", perLayer},
	{"multilevel.hier_sum_m", "count", "lower", perLayer},
	{"multilevel.hier_m_shrink", "ratio", "higher", perLayer},
	{"multilevel.hier_coarsest_m", "count", "lower", perLayer},
	{"kl.climb_s", "s", "lower", perLayer},
	{"fm.pass_s", "s", "lower", perLayer},
	{"lp.sweep_s", "s", "lower", perLayer},
	{"par.speedup_coarsen", "ratio", "higher", perLayer},
	{"par.speedup_refine", "ratio", "higher", perLayer},
	{"par.speedup_total", "ratio", "higher", perLayer},
	{"gen.refine_ms", "ms", "lower", perLayer},
	{"partition.extend_ms", "ms", "lower", perLayer},
	{"dpga.gen_ms", "ms", "lower", perLayer},
	{"dpga.converge_gen", "count", "lower", perLayer},
	{"dpga.speedup_eval", "ratio", "higher", perLayer},
	{"incremental.moved_frac", "ratio", "lower", perLayer},
	{"service.hit_ms", "ms", "lower", perLayer},
	{"service.resp_kb", "KB", "lower", perLayer},
	{"service.miss_ms", "ms", "lower", perLayer},
	{"service.compute_ms", "ms", "lower", perLayer},
	{"service.queue_ms", "ms", "lower", perLayer},
	{"service.upload_ms", "ms", "lower", perLayer},
	{"gio.parse_ms_per_mb", "ms/MB", "lower", perLayer},
	{"service.hash_ms", "ms", "lower", perLayer},
	{"service.store_dedup_rate", "ratio", "higher", perLayer},
	{"service.hit_rate", "ratio", "higher", perLayer},
	{"service.coalesced", "count", "higher", perLayer},
	{"service.cache_evictions", "count", "lower", perLayer},
	{"loadgen.late_p99_ms", "ms", "lower", perLayer},
	{"trace.overhead", "ratio", "lower", perLayer},
}

var metricByName = func() map[string]metric {
	m := map[string]metric{}
	for _, x := range catalog {
		m[x.name] = x
	}
	return m
}()

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// allocated returns the bytes the process has allocated on the heap so far,
// the runtime's cumulative counter (the TotalAlloc of runtime.MemStats
// without its stop-the-world read).
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const mb = 1 << 20

// peakRSSMB returns the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
