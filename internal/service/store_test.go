package service_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/service"
)

func TestGraphStoreDedupAndCounters(t *testing.T) {
	s := service.NewGraphStore(0)
	g := gen.Mesh(200, 5)

	sg, existed := s.Put(g)
	if existed {
		t.Fatal("first Put reported existed")
	}
	if !strings.HasPrefix(sg.Hash, "sha256:") || len(sg.Hash) != len("sha256:")+64 {
		t.Fatalf("malformed hash %q", sg.Hash)
	}
	if sg.Nodes != 200 || sg.Graph == nil {
		t.Fatalf("stored graph %+v", sg)
	}

	// The same content parsed independently deduplicates onto the same copy.
	again, existed := s.Put(gen.Mesh(200, 5))
	if !existed || again != sg {
		t.Fatal("identical graph did not dedup onto the stored copy")
	}

	got, ok := s.Get(sg.Hash)
	if !ok || got != sg {
		t.Fatal("Get by hash missed")
	}
	if _, ok := s.Get("sha256:" + strings.Repeat("0", 64)); ok {
		t.Fatal("Get of unknown hash hit")
	}

	st := s.Stats()
	if st.Graphs != 1 || st.Puts != 2 || st.Dedups != 1 || st.Hashes != 2 ||
		st.Gets != 1 || st.Misses != 1 || st.Parses != 0 {
		t.Errorf("counters: %+v", st)
	}
}

func TestGraphStoreParseAndPutCountsParses(t *testing.T) {
	s := service.NewGraphStore(0)
	var sb strings.Builder
	if err := gio.WriteMETIS(&sb, gen.Mesh(100, 1)); err != nil {
		t.Fatal(err)
	}
	sg, existed, err := s.ParseAndPut(gio.FormatMETIS, strings.NewReader(sb.String()))
	if err != nil || existed {
		t.Fatalf("sg=%v existed=%v err=%v", sg, existed, err)
	}
	if _, existed, _ := s.ParseAndPut(gio.FormatMETIS, strings.NewReader(sb.String())); !existed {
		t.Fatal("re-upload did not dedup")
	}
	st := s.Stats()
	if st.Parses != 2 || st.Hashes != 2 || st.Graphs != 1 {
		t.Errorf("counters: %+v", st)
	}
	if _, _, err := s.ParseAndPut(gio.FormatMETIS, strings.NewReader("not metis\n")); err == nil {
		t.Fatal("malformed payload stored")
	}
}

// The store is byte-bounded with LRU eviction; a Get refreshes recency.
func TestGraphStoreLRUEviction(t *testing.T) {
	// Actual resident footprint of one 100-node mesh (coords included):
	// offsets + both CSR directions + node weights + embedding.
	small := gen.Mesh(100, 1)
	one := 4*int64(101) + 2*int64(small.NumEdges())*(4+8) + 8*100 + 16*100
	s := service.NewGraphStore(2*one + one/2) // fits exactly two of these

	a, _ := s.Put(gen.Mesh(100, 1))
	b, _ := s.Put(gen.Mesh(100, 2))
	s.Get(a.Hash)                   // refresh a: b is now LRU
	c, _ := s.Put(gen.Mesh(100, 3)) // third graph: must evict b

	if _, ok := s.Get(a.Hash); !ok {
		t.Error("recently used graph evicted before the LRU one")
	}
	if _, ok := s.Get(b.Hash); ok {
		t.Error("LRU graph survived past the byte budget")
	}
	if _, ok := s.Get(c.Hash); !ok {
		t.Error("just-stored graph evicted")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Errorf("no evictions recorded: %+v", st)
	}
	if st.Bytes > st.CapacityBytes {
		t.Errorf("store holds %d bytes over the %d budget", st.Bytes, st.CapacityBytes)
	}
}

func TestJobLogPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	l, restored, err := service.OpenJobLog(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("fresh log restored %d records", len(restored))
	}
	l.Append(service.JobInfo{
		ID: "j00000001", State: service.StateDone, Algo: "kl", Parts: 2, Key: "k1",
		Result: &service.Result{Assign: []uint16{0, 1, 0}, Parts: 2, Cut: 3},
	})
	l.Append(service.JobInfo{ID: "j00000002", State: service.StateCancelled, Algo: "fm", Error: "cancelled"})
	l.Append(service.JobInfo{ID: "j00000003", State: service.StateFailed, Algo: "fm", Error: "boom"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, restored, err := service.OpenJobLog(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(restored) != 3 {
		t.Fatalf("restored %d records, want 3", len(restored))
	}
	if restored[0].ID != "j00000001" || restored[0].State != service.StateDone {
		t.Errorf("record 0: %+v", restored[0])
	}
	// Assignment vectors are stripped before persisting; metrics survive.
	if restored[0].Result == nil || restored[0].Result.Assign != nil || restored[0].Result.Cut != 3 {
		t.Errorf("record 0 result: %+v", restored[0].Result)
	}
	if restored[1].State != service.StateCancelled || restored[2].Error != "boom" {
		t.Errorf("records: %+v / %+v", restored[1], restored[2])
	}
}

// The log is bounded: it compacts at twice the bound while running and trims
// to the bound on reopen; a torn final line is skipped, not fatal.
func TestJobLogBoundedAndCrashTolerant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	l, _, err := service.OpenJobLog(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		l.Append(service.JobInfo{ID: "j" + strings.Repeat("0", 7) + string(rune('a'+i%26)), State: service.StateDone})
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines >= 20 {
		t.Errorf("log holds %d lines, want < 2x bound (20)", lines)
	}

	// Simulate a torn final write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"j-torn","state":"do`)
	f.Close()

	_, restored, err := service.OpenJobLog(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) > 10 {
		t.Errorf("restored %d records past the bound", len(restored))
	}
	for _, r := range restored {
		if r.ID == "j-torn" {
			t.Error("torn record restored")
		}
	}
}

// An engine wired to a job log persists terminal jobs, and a successor
// engine restored from it keeps answering GetJob for them.
func TestEngineJobLogRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	l, restored, err := service.OpenJobLog(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	e := service.New(service.Config{Workers: 1, Log: l, Restore: restored})
	g := testGraph(t)
	info, err := e.Submit(stored(g), "kl", algo.Options{Parts: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	done := waitDone(t, e, info.ID)
	e.Close()
	l.Close()

	l2, restored2, err := service.OpenJobLog(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	e2 := service.New(service.Config{Workers: 1, Log: l2, Restore: restored2})
	defer e2.Close()
	got, ok := e2.GetJob(done.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", done.ID)
	}
	if got.State != service.StateDone || got.Key != done.Key || got.Algo != "kl" {
		t.Errorf("restored job %+v", got)
	}
	if got.Result == nil || got.Result.Cut != done.Result.Cut || got.Result.Assign != nil {
		t.Errorf("restored result %+v", got.Result)
	}
	// New ids continue past the restored sequence — no collisions.
	next, err := e2.Submit(stored(g), "kl", algo.Options{Parts: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= done.ID {
		t.Errorf("new id %s does not advance past restored %s", next.ID, done.ID)
	}
}
