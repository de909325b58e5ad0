package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the BENCHMARK.json schema the smoke test reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkFile holds the metric catalog and workload list
// to the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var listed []metric
	for _, m := range bf.EndToEnd {
		listed = append(listed, metric{m.Name, m.Unit, m.Better, endToEnd})
	}
	for _, m := range bf.PerLayer {
		listed = append(listed, metric{m.Name, m.Unit, m.Better, perLayer})
	}
	if len(listed) != len(catalog) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the catalog has %d", len(listed), len(catalog))
	}
	for i, m := range listed {
		if m != catalog[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the catalog %+v", i, m, catalog[i])
		}
	}
}

// loads names one per-layer metric each workload must drive above zero:
// the layer it exists to measure.
var loads = map[string]string{
	"vcycle-rgg1m":        "multilevel.coarsen_s",
	"vcycle-powerlaw100k": "kl.climb_s",
	"ga-amr":              "dpga.gen_ms",
	"partd-mix":           "service.hit_rate",
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that each passes its output checks and prints every metric of its
// kind with the catalog's unit, end-to-end metrics all non-zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(w.name, config{seed: 7, seconds: 1, trace: trace, toy: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			kind := endToEnd
			if trace {
				kind = perLayer
			}
			want := 0
			for _, m := range catalog {
				if m.kind != kind {
					continue
				}
				want++
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, trace, m.name, got.Unit, m.unit)
				case kind == endToEnd && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), want)
			}
			if trace {
				for _, name := range []string{loads[w.name], "trace.overhead"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestSeedChangesInputs checks that another seed generates other inputs:
// the same metric names, a different cut.
func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := execute(w.name, config{seed: 7, seconds: 1, toy: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := execute(w.name, config{seed: 8, seconds: 1, toy: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Metrics) != len(b.Metrics) {
			t.Errorf("%s: %d metrics at seed 7, %d at seed 8", w.name, len(a.Metrics), len(b.Metrics))
		}
		if a.Metrics["cut"].Value == b.Metrics["cut"].Value {
			t.Errorf("%s: seeds 7 and 8 both cut %v; inputs look seed-independent", w.name, a.Metrics["cut"].Value)
		}
	}
}
