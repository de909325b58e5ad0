package client_test

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/service"
	"repro/pkg/client"
)

func newDaemon(t *testing.T, opts ...service.HandlerOption) *httptest.Server {
	t.Helper()
	e := service.New(service.Config{Workers: 2})
	ts := httptest.NewServer(service.NewHandler(e, opts...))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts
}

func metisPayload(t *testing.T, n int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := gio.WriteMETIS(&buf, gen.Mesh(n, 23)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The full client workflow: upload once, batch against the content address,
// wait, poll, read stats and the registry.
func TestClientEndToEnd(t *testing.T) {
	ts := newDaemon(t)
	cl := client.New(ts.URL, client.WithName("e2e"))
	ctx := context.Background()

	up, err := cl.UploadGraph(ctx, "metis", metisPayload(t, 250))
	if err != nil {
		t.Fatal(err)
	}
	if up.Existed || up.Nodes != 250 {
		t.Fatalf("upload %+v", up)
	}
	meta, err := cl.Graph(ctx, up.Hash)
	if err != nil || meta.Nodes != 250 {
		t.Fatalf("graph meta %+v err %v", meta, err)
	}

	batch, err := cl.SubmitBatchWait(ctx, up.Hash, []service.JobSpec{
		{Algo: "multilevel-kl", Parts: 4, Seed: 1},
		{Algo: "fm", Parts: 4, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Jobs) != 2 {
		t.Fatalf("%d jobs", len(batch.Jobs))
	}
	for i, j := range batch.Jobs {
		if j.State != service.StateDone || len(j.Result.Assign) != 250 {
			t.Fatalf("job %d: %+v", i, j)
		}
	}

	// Poll and wait individually.
	got, err := cl.Job(ctx, batch.Jobs[0].ID)
	if err != nil || got.State != service.StateDone {
		t.Fatalf("poll: %+v err %v", got, err)
	}
	got, err = cl.WaitJob(ctx, batch.Jobs[1].ID)
	if err != nil || got.State != service.StateDone {
		t.Fatalf("wait: %+v err %v", got, err)
	}

	// The legacy path through the same client.
	legacy, err := cl.Partition(ctx, service.PartitionRequest{
		JobSpec: service.JobSpec{Algo: "multilevel-kl", Parts: 4, Seed: 1}, Graph: metisPayload(t, 250), Wait: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same content, same spec — same cache key, so this is a cache hit with
	// the bit-identical assignment.
	if !legacy.Cached {
		t.Error("legacy resubmission of the stored graph missed the cache")
	}
	for v := range legacy.Result.Assign {
		if legacy.Result.Assign[v] != batch.Jobs[0].Result.Assign[v] {
			t.Fatalf("legacy and batch assignments differ at node %d", v)
		}
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Version != service.APIVersion || stats.Store.Graphs != 1 {
		t.Errorf("stats %+v", stats)
	}
	if stats.CacheHits == 0 {
		t.Error("no cache hit recorded")
	}
	algos, err := cl.Algos(ctx)
	if err != nil || algos.API != service.APIVersion || len(algos.Algos) < 15 {
		t.Fatalf("algos %d entries api %q err %v", len(algos.Algos), algos.API, err)
	}
}

// Structured daemon errors surface as typed *APIError values.
func TestClientTypedErrors(t *testing.T) {
	ts := newDaemon(t)
	cl := client.New(ts.URL, client.WithName("errs"))
	ctx := context.Background()

	_, err := cl.Partition(ctx, service.PartitionRequest{JobSpec: service.JobSpec{Algo: "nope", Parts: 2}, Graph: metisPayload(t, 50)})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "unknown_algo" || apiErr.Status != 400 {
		t.Fatalf("got %v, want unknown_algo APIError", err)
	}
	if apiErr.IsRetryable() {
		t.Error("caller mistake reported as retryable")
	}

	_, err = cl.Cancel(ctx, "zzz")
	if !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
		t.Fatalf("cancel unknown: %v", err)
	}

	_, err = cl.SubmitBatch(ctx, "bogus", []service.JobSpec{{Algo: "kl", Parts: 2}})
	if !errors.As(err, &apiErr) || apiErr.Code != "bad_graph_ref" {
		t.Fatalf("bad ref: %v", err)
	}
}

// Quota refusals carry the retry hint through to the typed error.
func TestClientQuotaRetryAfter(t *testing.T) {
	ts := newDaemon(t, service.WithQuota(service.NewQuota(0.01, 1)))
	cl := client.New(ts.URL, client.WithName("greedy"))
	ctx := context.Background()

	if _, err := cl.UploadGraph(ctx, "metis", metisPayload(t, 50)); err != nil {
		t.Fatal(err)
	}
	_, err := cl.UploadGraph(ctx, "metis", metisPayload(t, 60))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "quota_exceeded" {
		t.Fatalf("got %v, want quota_exceeded", err)
	}
	if !apiErr.IsRetryable() || apiErr.RetryAfter <= 0 {
		t.Errorf("quota error not retryable with hint: %+v", apiErr)
	}
}
