package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// newTestServerOpts boots the HTTP stack with handler options (store, quota).
func newTestServerOpts(t *testing.T, cfg service.Config, opts ...service.HandlerOption) (*httptest.Server, *service.Engine) {
	t.Helper()
	e := service.New(cfg)
	ts := httptest.NewServer(service.NewHandler(e, opts...))
	t.Cleanup(func() {
		ts.Close()
		e.Close()
	})
	return ts, e
}

func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getStats(t *testing.T, url string) service.StatsResponse {
	t.Helper()
	status, data := doJSON(t, http.MethodGet, url+"/v1/stats", nil)
	if status != http.StatusOK {
		t.Fatalf("stats status %d: %s", status, data)
	}
	var s service.StatsResponse
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// The upload-once acceptance scenario: one PUT followed by a 10-spec batch
// costs exactly one parse and one content hash, and yields assignments
// bit-identical to 10 legacy inline submissions computed by an independent
// daemon.
func TestHTTPUploadOnceBatchBitIdentical(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Config{Workers: 2})
	payload := metisPayload(t, 300)

	status, data := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs",
		service.GraphPutRequest{Graph: payload})
	if status != http.StatusCreated {
		t.Fatalf("PUT status %d: %s", status, data)
	}
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}
	if put.Existed || put.Nodes != 300 || !strings.HasPrefix(put.Hash, "sha256:") {
		t.Fatalf("PUT response %+v", put)
	}

	const specs = 10
	batch := service.BatchRequest{Graph: put.Hash, Wait: true}
	for seed := int64(0); seed < specs; seed++ {
		batch.Specs = append(batch.Specs, service.JobSpec{Algo: "multilevel-kl", Parts: 4, Seed: seed})
	}
	status, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", batch)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, data)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Jobs) != specs {
		t.Fatalf("%d jobs returned, want %d", len(br.Jobs), specs)
	}
	for i, j := range br.Jobs {
		if j.State != service.StateDone || j.Result == nil {
			t.Fatalf("job %d: state %s (%s)", i, j.State, j.Error)
		}
	}

	// The counters prove the contract: one parse, one hash — not ten.
	s := getStats(t, ts.URL)
	if s.Store.Parses != 1 || s.Store.Hashes != 1 {
		t.Fatalf("one PUT + %d-spec batch cost %d parses and %d hashes; want 1 and 1",
			specs, s.Store.Parses, s.Store.Hashes)
	}
	if s.CacheMisses != specs {
		t.Errorf("batch of %d distinct specs recorded %d misses", specs, s.CacheMisses)
	}

	// Bit-identity against the legacy path on an independent engine.
	legacy, _ := newTestServerOpts(t, service.Config{Workers: 2})
	for i, j := range br.Jobs {
		status, data := postPartition(t, legacy.URL, service.PartitionRequest{
			JobSpec: service.JobSpec{Algo: "multilevel-kl", Parts: 4, Seed: int64(i)}, Graph: payload, Wait: true,
		})
		if status != http.StatusOK {
			t.Fatalf("legacy submit %d: status %d: %s", i, status, data)
		}
		li := decodeJob(t, data)
		if len(li.Result.Assign) != len(j.Result.Assign) {
			t.Fatalf("seed %d: assign lengths differ", i)
		}
		for v := range li.Result.Assign {
			if li.Result.Assign[v] != j.Result.Assign[v] {
				t.Fatalf("seed %d: batch and legacy assignments differ at node %d", i, v)
			}
		}
	}

	// Re-uploading the same graph deduplicates: 200 with existed=true.
	status, data = doJSON(t, http.MethodPut, ts.URL+"/v1/graphs",
		service.GraphPutRequest{Graph: payload})
	if status != http.StatusOK {
		t.Fatalf("re-PUT status %d: %s", status, data)
	}
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}
	if !put.Existed {
		t.Error("re-upload not reported as existing")
	}

	// Stored-graph metadata is readable by hash.
	status, data = doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/"+put.Hash, nil)
	if status != http.StatusOK {
		t.Fatalf("GET graph status %d: %s", status, data)
	}
}

// DELETE of one in-flight batch member leaves the other members untouched.
func TestHTTPBatchCancelOneMember(t *testing.T) {
	ctl := installBlock(t)
	ts, _ := newTestServerOpts(t, service.Config{Workers: 1})
	payload := metisPayload(t, 200)

	status, data := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs", service.GraphPutRequest{Graph: payload})
	if status != http.StatusCreated {
		t.Fatalf("PUT status %d: %s", status, data)
	}
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}

	const specs = 10
	batch := service.BatchRequest{Graph: put.Hash}
	for seed := int64(0); seed < specs; seed++ {
		batch.Specs = append(batch.Specs, service.JobSpec{Algo: "test-block", Parts: 2, Seed: seed})
	}
	status, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", batch)
	if status != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", status, data)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	ctl.waitStarted(t) // first member is running, the rest are queued

	victim := br.Jobs[5].ID
	status, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+victim, nil)
	if status != http.StatusOK {
		t.Fatalf("DELETE status %d: %s", status, data)
	}
	if got := decodeJob(t, data); got.State != service.StateCancelled {
		t.Fatalf("cancelled job state %s", got.State)
	}

	// ?wait=1 on the cancelled job returns promptly, not when the queue
	// drains. Enforced by a client timeout far shorter than the blocked
	// queue would take.
	quick := &http.Client{Timeout: 3 * time.Second}
	resp, err := quick.Get(ts.URL + "/v1/jobs/" + victim + "?wait=1")
	if err != nil {
		t.Fatalf("wait on cancelled job did not return promptly: %v", err)
	}
	waited, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := decodeJob(t, waited); got.State != service.StateCancelled {
		t.Fatalf("waited job state %s: %s", got.State, waited)
	}

	// Release the pool; the other nine members must all complete.
	close(ctl.release)
	for i, j := range br.Jobs {
		if j.ID == victim {
			continue
		}
		status, data := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"?wait=1", nil)
		if status != http.StatusOK {
			t.Fatalf("member %d wait status %d: %s", i, status, data)
		}
		if got := decodeJob(t, data); got.State != service.StateDone {
			t.Fatalf("member %d state %s (%s) after sibling cancel", i, got.State, got.Error)
		}
	}

	// Cancelling the finished sibling is a structured 409.
	status, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+br.Jobs[0].ID, nil)
	if status != http.StatusConflict || decodeErrorCode(t, data) != "job_finished" {
		t.Fatalf("DELETE finished job: status %d code %s", status, decodeErrorCode(t, data))
	}
	// Unknown job: structured 404.
	status, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/zzz", nil)
	if status != http.StatusNotFound || decodeErrorCode(t, data) != "not_found" {
		t.Fatalf("DELETE unknown job: status %d body %s", status, data)
	}
}

// Batch validation is atomic: one bad spec refuses the whole batch and no
// job is created.
func TestHTTPBatchValidationAtomic(t *testing.T) {
	ts, e := newTestServerOpts(t, service.Config{Workers: 1})
	payload := metisPayload(t, 100)
	status, data := doJSON(t, http.MethodPut, ts.URL+"/v1/graphs", service.GraphPutRequest{Graph: payload})
	if status != http.StatusCreated {
		t.Fatalf("PUT status %d: %s", status, data)
	}
	var put service.GraphPutResponse
	if err := json.Unmarshal(data, &put); err != nil {
		t.Fatal(err)
	}

	batch := service.BatchRequest{Graph: put.Hash, Specs: []service.JobSpec{
		{Algo: "kl", Parts: 2},
		{Algo: "nope", Parts: 2}, // invalid: must sink the whole batch
		{Algo: "kl", Parts: 4},
	}}
	status, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", batch)
	if status != http.StatusBadRequest || decodeErrorCode(t, data) != "unknown_algo" {
		t.Fatalf("mixed batch: status %d body %s", status, data)
	}
	if !strings.Contains(string(data), "spec[1]") {
		t.Errorf("error does not name the offending spec: %s", data)
	}
	if s := e.Stats(); s.JobsSubmitted != 0 {
		t.Errorf("refused batch still created %d jobs", s.JobsSubmitted)
	}

	// Reference errors are structured too.
	status, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.BatchRequest{Graph: "not-a-hash", Specs: batch.Specs[:1]})
	if status != http.StatusBadRequest || decodeErrorCode(t, data) != "bad_graph_ref" {
		t.Fatalf("bad ref: status %d body %s", status, data)
	}
	status, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.BatchRequest{Graph: "sha256:" + strings.Repeat("a", 64), Specs: batch.Specs[:1]})
	if status != http.StatusNotFound || decodeErrorCode(t, data) != "graph_not_found" {
		t.Fatalf("unknown graph: status %d body %s", status, data)
	}
	status, data = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs",
		service.BatchRequest{Graph: put.Hash})
	if status != http.StatusBadRequest || decodeErrorCode(t, data) != "empty_batch" {
		t.Fatalf("empty batch: status %d body %s", status, data)
	}
}

// Every response on the surface — including the router's own 404 and 405 —
// carries the JSON error envelope.
func TestHTTPErrorEnvelopeEverywhere(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Config{Workers: 1})

	status, data := doJSON(t, http.MethodGet, ts.URL+"/v1/nope", nil)
	if status != http.StatusNotFound || decodeErrorCode(t, data) != "not_found" {
		t.Fatalf("unknown route: status %d body %q", status, data)
	}

	status, data = doJSON(t, http.MethodDelete, ts.URL+"/v1/algos", nil)
	if status != http.StatusMethodNotAllowed || decodeErrorCode(t, data) != "method_not_allowed" {
		t.Fatalf("wrong method: status %d body %q", status, data)
	}

	// Handler-level errors keep their own codes (the interceptor must not
	// clobber JSON the handlers already wrote).
	status, data = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/zzz", nil)
	if status != http.StatusNotFound || decodeErrorCode(t, data) != "not_found" {
		t.Fatalf("unknown job: status %d body %q", status, data)
	}
	status, data = doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/zzz", nil)
	if status != http.StatusBadRequest || decodeErrorCode(t, data) != "bad_graph_ref" {
		t.Fatalf("bad graph ref: status %d body %q", status, data)
	}
}

// Per-client quota: mutating requests past the burst are refused with a
// structured 429 and Retry-After; reads are never throttled; /v1/stats
// reports per-client counters.
func TestHTTPQuotaAdmission(t *testing.T) {
	ts, _ := newTestServerOpts(t, service.Config{Workers: 1},
		service.WithQuota(service.NewQuota(0.01, 2))) // burst 2, negligible refill
	payload := metisPayload(t, 100)

	send := func(client string) (int, []byte, http.Header) {
		body, _ := json.Marshal(service.PartitionRequest{JobSpec: service.JobSpec{Algo: "kl", Parts: 2}, Graph: payload, Wait: true})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/partition", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, data, resp.Header
	}

	for i := 0; i < 2; i++ {
		if status, data, _ := send("alice"); status != http.StatusOK {
			t.Fatalf("request %d within burst: status %d: %s", i, status, data)
		}
	}
	status, data, hdr := send("alice")
	if status != http.StatusTooManyRequests || decodeErrorCode(t, data) != "quota_exceeded" {
		t.Fatalf("over-burst request: status %d body %s", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// A different client is unaffected.
	if status, data, _ := send("bob"); status != http.StatusOK {
		t.Fatalf("other client throttled: status %d: %s", status, data)
	}
	// Reads are never throttled, and the stats expose per-client counters.
	for i := 0; i < 5; i++ {
		s := getStats(t, ts.URL)
		if i < 4 {
			continue
		}
		if s.Quota == nil {
			t.Fatal("stats carry no quota block")
		}
		alice := s.Quota.Clients["alice"]
		if alice.Requests != 3 || alice.Throttled != 1 {
			t.Errorf("alice counters %+v, want 3 requests 1 throttled", alice)
		}
	}
}
