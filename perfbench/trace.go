package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call into a module, recorded from the benchmark's side of
// the call. Spans of one timed operation share Op; Parent is the ID of the
// span that caused this one (-1 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// level is one row of the coarsening hierarchy ledger.
type level struct {
	N int `json:"n"`
	M int `json:"m"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	hierarchy []level
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, op, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// ms returns the durations of every closed span named name, in ms.
func (t *tracer) ms(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans and the hierarchy ledger as
// <dir>/traces/<workload>-seed<n>.json. An empty dir writes nothing.
func (t *tracer) write(dir, workload string, seed int64) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Workload  string  `json:"workload"`
		Seed      int64   `json:"seed"`
		Hierarchy []level `json:"hierarchy,omitempty"`
		Spans     []span  `json:"spans"`
	}{workload, seed, t.hierarchy, t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
