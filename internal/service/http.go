package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/algo"
	"repro/internal/gio"
	"repro/internal/partition"
)

// HTTP JSON API over the Engine — the surface cmd/partd serves.
//
//	PUT    /v1/graphs         upload a graph once; returns its content address
//	GET    /v1/graphs/{hash}  stored-graph metadata
//	POST   /v1/jobs           batch-submit specs against a stored graph
//	GET    /v1/jobs/{id}      job status and result (?wait=1 blocks)
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	POST   /v1/partition      legacy inline submit (graph payload in the body)
//	GET    /v1/algos          the registry with declared constraints
//	GET    /v1/stats          engine, store, and per-client quota counters
//
// Every error — including the router's own 404/405 — is structured:
// {"error": {"code": "...", "message": "..."}} with a 4xx status for caller
// mistakes. Mutating requests pass per-client token-bucket admission when a
// Quota is configured; refusals are 429 with code "quota_exceeded" and a
// Retry-After header.

// APIVersion names the wire protocol served by NewHandler; /v1/stats reports
// it as "version" and /v1/algos as "api".
const APIVersion = "v2"

// maxGraphPayload bounds a graph-carrying request body. A 10M-node mesh in
// METIS form is ~100 MB of text; this default admits the scales the suites
// exercise while keeping a single request from exhausting the daemon.
const maxGraphPayload = 256 << 20

// maxControlPayload bounds bodies that carry no graph (batch submissions):
// a full batch of specs is a few KB, so anything near this limit is abuse.
const maxControlPayload = 1 << 20

// maxBatchSpecs bounds one batch submission. The engine's queue bound is the
// real backpressure; this merely keeps a single request from monopolizing it.
const maxBatchSpecs = 1024

// JobSpec is one algorithm request: POST /v1/jobs carries a list of them,
// and the legacy POST /v1/partition embeds exactly one. Speed knobs (worker
// widths) are deliberately absent — they never change results and the
// daemon sizes them itself.
type JobSpec struct {
	Algo      string `json:"algo"`
	Parts     int    `json:"parts"`
	Seed      int64  `json:"seed"`
	Objective string `json:"objective,omitempty"` // "cut" (default), "maxcut", or "commvol"; legacy "total"/"worst" accepted

	Generations  int `json:"generations,omitempty"`
	PopSize      int `json:"pop_size,omitempty"`
	Islands      int `json:"islands,omitempty"`
	RefinePasses int `json:"refine_passes,omitempty"`
	CoarsestSize int `json:"coarsest_size,omitempty"`
	LanczosIter  int `json:"lanczos_iter,omitempty"`
}

// PartitionRequest is the body of the legacy POST /v1/partition: one
// JobSpec, whose fields sit at the top level of the JSON object, plus an
// inline serialized graph. Format names the encoding ("metis" is the
// default, "edgelist" and "text" the alternatives). Wait, when true, holds
// the response until the job completes instead of returning 202
// immediately. Internally the daemon runs this through the same
// store-then-submit path as the v2 endpoints, so repeated inline uploads of
// the same graph deduplicate onto one stored copy.
type PartitionRequest struct {
	JobSpec
	Format string `json:"format,omitempty"`
	Graph  string `json:"graph"`
	Wait   bool   `json:"wait,omitempty"`
}

// GraphPutRequest is the body of PUT /v1/graphs.
type GraphPutRequest struct {
	Format string `json:"format,omitempty"`
	Graph  string `json:"graph"`
}

// GraphPutResponse answers PUT /v1/graphs: the content address to use in
// batch submissions, and whether the graph was already stored (200) or is
// new (201).
type GraphPutResponse struct {
	Hash    string `json:"hash"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Existed bool   `json:"existed"`
}

// BatchRequest is the body of POST /v1/jobs: a stored-graph reference
// ("sha256:..." from PUT /v1/graphs) and the specs to fan out against it.
// The batch is atomic at validation: either every spec is accepted or the
// whole request is refused with the first offending spec's error.
type BatchRequest struct {
	Graph string    `json:"graph"`
	Specs []JobSpec `json:"specs"`
	Wait  bool      `json:"wait,omitempty"`
}

// BatchResponse answers POST /v1/jobs with one JobInfo per spec, in order.
type BatchResponse struct {
	Graph string    `json:"graph"`
	Jobs  []JobInfo `json:"jobs"`
}

// AlgoInfo is one registry entry as served by GET /v1/algos. Objectives
// lists every objective the algorithm accepts, by flag name ("cut" always
// included — it is supported universally).
type AlgoInfo struct {
	Name            string   `json:"name"`
	Description     string   `json:"description"`
	NeedsCoords     bool     `json:"needs_coords"`
	PowerOfTwoParts bool     `json:"power_of_two_parts"`
	Stochastic      bool     `json:"stochastic"`
	Objectives      []string `json:"objectives"`
}

// AlgosResponse wraps GET /v1/algos with the API version.
type AlgosResponse struct {
	API   string     `json:"api"`
	Algos []AlgoInfo `json:"algos"`
}

// StatsResponse is GET /v1/stats: the engine counters (embedded, so the
// pre-v2 wire fields are unchanged) plus the API version, the graph store's
// counters, and — when admission control is on — per-client quota counters.
type StatsResponse struct {
	Version string `json:"version"`
	Stats
	Store StoreStats  `json:"store"`
	Quota *QuotaStats `json:"quota,omitempty"`
	Peer  *PeerStats  `json:"peer,omitempty"`
}

// HandlerOption configures NewHandler.
type HandlerOption func(*httpServer)

// WithStore serves the API over an externally owned graph store (so the
// daemon can size it and read its counters directly). Without it NewHandler
// creates a default-sized store of its own.
func WithStore(st *GraphStore) HandlerOption {
	return func(s *httpServer) { s.store = st }
}

// WithQuota enables per-client admission control. Without it (or with a nil
// quota) everything is admitted, as before.
func WithQuota(q *Quota) HandlerOption {
	return func(s *httpServer) { s.quota = q }
}

// WithAuth requires a bearer token on every request except GET /v1/healthz.
// The client name bound to the presented token overwrites X-Client, so quota
// identity follows the credential rather than a self-reported header.
func WithAuth(a *Auth) HandlerOption {
	return func(s *httpServer) { s.auth = a }
}

// WithPeers lets this shard pull graphs it does not hold from fleet peers
// (lazy rebalancing after membership changes). Without it a missing graph is
// simply graph_not_found.
func WithPeers(p *PeerFetcher) HandlerOption {
	return func(s *httpServer) { s.peers = p }
}

// NewHandler builds the HTTP API over e.
func NewHandler(e *Engine, opts ...HandlerOption) http.Handler {
	// Graph payloads are decoded and parsed before the engine's queue bound
	// can refuse them, so concurrent parsing is its own memory hazard: N
	// simultaneous near-limit uploads would materialize N bodies plus their
	// CSR arrays at once. The semaphore bounds how many requests may be in
	// the decode/parse stage; the rest wait on their connection, which
	// costs kilobytes instead of gigabytes.
	s := &httpServer{e: e, parseSem: make(chan struct{}, e.Workers()+2)}
	for _, o := range opts {
		o(s)
	}
	if s.store == nil {
		s.store = NewGraphStore(0)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/graphs", s.handleGraphPut)
	mux.HandleFunc("GET /v1/graphs/{hash}", s.handleGraphGet)
	mux.HandleFunc("POST /v1/jobs", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/partition", s.handlePartition)
	mux.HandleFunc("GET /v1/algos", s.handleAlgos)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux = mux
	return http.HandlerFunc(s.serve)
}

type httpServer struct {
	e        *Engine
	store    *GraphStore
	quota    *Quota
	auth     *Auth
	peers    *PeerFetcher
	mux      *http.ServeMux
	parseSem chan struct{}
}

// serve is the entry point: liveness first (unauthenticated, unmetered),
// then authentication, then quota admission, then routing, with the router's
// own plain-text 404/405 rewritten into the JSON error envelope so clients
// can rely on one error shape for the entire surface.
func (s *httpServer) serve(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/healthz" {
		// The fleet router probes this to mark shards down/up; it must work
		// without a token and must not consume quota.
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "method not allowed for this endpoint")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		return
	}
	if s.auth != nil {
		name, ok := s.auth.Identify(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="partd"`)
			writeError(w, http.StatusUnauthorized, "unauthorized",
				"missing or unknown bearer token (send Authorization: Bearer <token>)")
			return
		}
		// Quota identity follows the credential; a self-reported X-Client
		// cannot borrow another client's bucket.
		r.Header.Set("X-Client", name)
	}
	client := clientID(r)
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		// Reads are not admission-controlled (a polling client must always
		// be able to observe its jobs), only counted.
		s.quota.Note(client)
	default:
		if ok, retryAfter := s.quota.Admit(client); !ok {
			secs := int(retryAfter.Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, "quota_exceeded",
				fmt.Sprintf("client %q is over its request quota; retry in %ds", client, secs))
			return
		}
	}
	s.mux.ServeHTTP(&envelopeWriter{rw: w}, r)
}

// clientID identifies the caller for quota accounting: the X-Client header
// when present (cooperating clients name themselves), the remote address
// otherwise.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// envelopeWriter rewrites the router's own plain-text 404 (no such route)
// and 405 (wrong method) responses into the structured error envelope.
// Handler-written errors pass through untouched: they set an application/json
// Content-Type before WriteHeader, which is the discriminator.
type envelopeWriter struct {
	rw      http.ResponseWriter
	swallow bool
}

func (w *envelopeWriter) Header() http.Header { return w.rw.Header() }

func (w *envelopeWriter) WriteHeader(status int) {
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.rw.Header().Get("Content-Type"), "application/json") {
		w.swallow = true // drop the router's plain-text body that follows
		code, msg := "not_found", "no such endpoint"
		if status == http.StatusMethodNotAllowed {
			code, msg = "method_not_allowed", "method not allowed for this endpoint"
			if allow := w.rw.Header().Get("Allow"); allow != "" {
				msg += " (allowed: " + allow + ")"
			}
		}
		writeError(w.rw, status, code, msg)
		return
	}
	w.rw.WriteHeader(status)
}

func (w *envelopeWriter) Write(p []byte) (int, error) {
	if w.swallow {
		return len(p), nil
	}
	return w.rw.Write(p)
}

// decodeGraphPayload decodes a graph-carrying body and parses it into the
// store, holding a parse slot throughout. It returns the stored graph, or
// writes the error response and returns nil.
func (s *httpServer) parsePayload(w http.ResponseWriter, format, payload string) (*StoredGraph, bool) {
	f, err := gio.FormatByName(format)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_format",
			fmt.Sprintf("unknown graph format %q (want metis, edgelist, or text)", format))
		return nil, false
	}
	if f == gio.FormatAuto {
		f = gio.FormatMETIS
	}
	if payload == "" {
		writeError(w, http.StatusBadRequest, "bad_graph", "request carries no graph payload")
		return nil, false
	}
	sg, existed, err := s.store.ParseAndPut(f, strings.NewReader(payload))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_graph", err.Error())
		return nil, false
	}
	return sg, existed
}

// acquireParseSlot blocks until a decode/parse slot is free; it returns a
// release func, or writes the error and returns nil if the client gave up.
func (s *httpServer) acquireParseSlot(w http.ResponseWriter, r *http.Request) func() {
	select {
	case s.parseSem <- struct{}{}:
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "unavailable", "request cancelled while waiting for a parse slot")
		return nil
	}
	released := false
	return func() {
		if !released {
			released = true
			<-s.parseSem
		}
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad_json", "malformed request body: "+err.Error())
		return false
	}
	return true
}

// handleGraphPut is PUT /v1/graphs: parse once, store by content address.
func (s *httpServer) handleGraphPut(w http.ResponseWriter, r *http.Request) {
	release := s.acquireParseSlot(w, r)
	if release == nil {
		return
	}
	defer release()
	var req GraphPutRequest
	if !decodeBody(w, r, maxGraphPayload, &req) {
		return
	}
	sg, ok := s.parsePayload(w, req.Format, req.Graph)
	if sg == nil {
		return
	}
	status := http.StatusCreated
	if ok {
		status = http.StatusOK // deduplicated onto an existing upload
	}
	writeJSON(w, status, GraphPutResponse{Hash: sg.Hash, Nodes: sg.Nodes, Edges: sg.Edges, Existed: ok})
}

// handleGraphGet is GET /v1/graphs/{hash}: stored-graph metadata, or with
// ?export= the graph content itself — "bin" is the canonical hash-faithful
// binary (what peer-fetch transfers), "metis" a human-readable export that
// drops coordinates.
func (s *httpServer) handleGraphGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if re := validateGraphRef(hash); re != nil {
		writeError(w, http.StatusBadRequest, re.Code, re.Message)
		return
	}
	sg, ok := s.store.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, "graph_not_found",
			fmt.Sprintf("no stored graph %s (evicted or never uploaded; PUT /v1/graphs to (re)store it)", hash))
		return
	}
	switch export := r.URL.Query().Get("export"); export {
	case "":
		writeJSON(w, http.StatusOK, sg)
	case "bin":
		w.Header().Set("Content-Type", "application/x-partd-graph")
		w.Header().Set("X-Graph-Hash", sg.Hash)
		_ = WriteGraphBinary(w, sg.Graph) // mid-stream failure means a dead conn; nothing to report
	case "metis":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Graph-Hash", sg.Hash)
		_ = gio.WriteGraph(gio.FormatMETIS, w, sg.Graph)
	default:
		writeError(w, http.StatusBadRequest, "bad_export",
			fmt.Sprintf("unknown export %q (want bin or metis)", export))
	}
}

// handleBatch is POST /v1/jobs: fan a batch of specs out against one stored
// graph. Validation is atomic — any bad spec refuses the whole batch before
// a single job exists. The stored content address keys the result cache
// directly, so an N-spec batch costs zero parses and zero hashes here.
func (s *httpServer) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, maxControlPayload, &req) {
		return
	}
	if re := validateGraphRef(req.Graph); re != nil {
		writeError(w, http.StatusBadRequest, re.Code, re.Message)
		return
	}
	sg, ok := s.store.Get(req.Graph)
	if !ok && s.peers != nil {
		// Fleet mode: the hash may live on the shard that owned it before a
		// membership change. Pull it, store it, and proceed — this is the lazy
		// rebalance. The fetcher has already verified the content hash.
		if g, err := s.peers.Fetch(req.Graph); err == nil {
			sg, _ = s.store.Put(g)
			ok = sg.Hash == req.Graph
		}
	}
	if !ok {
		writeError(w, http.StatusNotFound, "graph_not_found",
			fmt.Sprintf("no stored graph %s (evicted or never uploaded; PUT /v1/graphs to (re)store it)", req.Graph))
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", "batch carries no specs")
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		writeError(w, http.StatusBadRequest, "too_many_specs",
			fmt.Sprintf("batch of %d specs exceeds the per-request maximum %d", len(req.Specs), maxBatchSpecs))
		return
	}
	allOpts := make([]algo.Options, len(req.Specs))
	for i := range req.Specs {
		opts, rerr := optionsFromSpec(&req.Specs[i])
		if rerr == nil {
			var re *RequestError
			if err := s.e.Validate(sg.Graph, req.Specs[i].Algo, opts); errors.As(err, &re) {
				rerr = re
			}
		}
		if rerr != nil {
			writeError(w, http.StatusBadRequest, rerr.Code,
				fmt.Sprintf("spec[%d]: %s", i, rerr.Message))
			return
		}
		allOpts[i] = opts
	}
	jobs := make([]JobInfo, 0, len(req.Specs))
	for i := range req.Specs {
		info, err := s.e.Submit(sg, req.Specs[i].Algo, allOpts[i])
		if err != nil {
			// Mid-batch refusal (queue filled up under us): cancel what this
			// request already submitted so the batch stays all-or-nothing.
			for _, j := range jobs {
				s.e.CancelJob(j.ID)
			}
			writeSubmitError(w, err)
			return
		}
		jobs = append(jobs, info)
	}
	if req.Wait || r.URL.Query().Get("wait") == "1" {
		for i := range jobs {
			final, err := s.e.WaitJob(r.Context(), jobs[i].ID)
			if err != nil {
				writeError(w, http.StatusServiceUnavailable, "wait_interrupted", err.Error())
				return
			}
			jobs[i] = final
		}
		writeJSON(w, http.StatusOK, BatchResponse{Graph: sg.Hash, Jobs: jobs})
		return
	}
	writeJSON(w, http.StatusAccepted, BatchResponse{Graph: sg.Hash, Jobs: jobs})
}

// handlePartition is the legacy one-shot endpoint, reimplemented as a thin
// shim over the same store-then-submit path the v2 endpoints use: parse and
// store the inline payload (deduplicating with prior uploads), then submit
// by content address. One code path, no behavioral drift between APIs.
func (s *httpServer) handlePartition(w http.ResponseWriter, r *http.Request) {
	release := s.acquireParseSlot(w, r)
	if release == nil {
		return
	}
	defer release()
	var req PartitionRequest
	if !decodeBody(w, r, maxGraphPayload, &req) {
		return
	}
	sg, _ := s.parsePayload(w, req.Format, req.Graph)
	if sg == nil {
		return
	}
	opts, rerr := optionsFromSpec(&req.JobSpec)
	if rerr != nil {
		writeError(w, http.StatusBadRequest, rerr.Code, rerr.Message)
		return
	}
	req.Graph = "" // drop the body copy; the store owns the parsed arrays now
	// The slot covers only the decode/parse stage; release before any wait
	// so wait-mode requests do not pin slots while blocked on their job.
	release()
	if req.Wait || r.URL.Query().Get("wait") == "1" {
		// SubmitWait holds the job across the wait — unlike submit-then-poll
		// it cannot lose the result to history eviction under load.
		final, err := s.e.SubmitWait(r.Context(), sg, req.Algo, opts)
		if err != nil {
			writeSubmitError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, final)
		return
	}
	info, err := s.e.Submit(sg, req.Algo, opts)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	status := http.StatusAccepted
	if info.State.terminal() {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// writeSubmitError maps a Submit/SubmitWait failure to its HTTP shape:
// caller mistakes are 400 with their stable code, a full queue is 429
// (back off and retry), a closed engine is 503 with the typed engine_closed
// code, anything else a generic 503.
func writeSubmitError(w http.ResponseWriter, err error) {
	var re *RequestError
	switch {
	case errors.As(err, &re):
		writeError(w, http.StatusBadRequest, re.Code, re.Message)
	case errors.Is(err, ErrOverloaded):
		writeError(w, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, ErrEngineClosed):
		writeError(w, http.StatusServiceUnavailable, "engine_closed", err.Error())
	default:
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	}
}

func (s *httpServer) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.URL.Query().Get("wait") == "1" {
		info, err := s.e.WaitJob(r.Context(), id)
		switch {
		case errors.Is(err, ErrNoJob):
			writeError(w, http.StatusNotFound, "not_found", err.Error())
		case err != nil:
			writeError(w, http.StatusServiceUnavailable, "wait_interrupted", err.Error())
		default:
			writeJSON(w, http.StatusOK, info)
		}
		return
	}
	info, ok := s.e.GetJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleCancel is DELETE /v1/jobs/{id}. Cancelling an already-cancelled job
// is idempotent (200); a finished job is 409 job_finished — too late, the
// result exists.
func (s *httpServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.e.CancelJob(r.PathValue("id"))
	var re *RequestError
	switch {
	case errors.Is(err, ErrNoJob):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.As(err, &re):
		writeError(w, http.StatusConflict, re.Code, re.Message)
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	default:
		writeJSON(w, http.StatusOK, info)
	}
}

func (s *httpServer) handleAlgos(w http.ResponseWriter, _ *http.Request) {
	names := algo.Names()
	out := make([]AlgoInfo, 0, len(names))
	for _, name := range names {
		p, err := algo.Get(name)
		if err != nil {
			continue
		}
		info := p.Info()
		objectives := make([]string, 0, len(partition.Objectives()))
		for _, o := range partition.Objectives() {
			if info.SupportsObjective(o) {
				objectives = append(objectives, o.FlagName())
			}
		}
		out = append(out, AlgoInfo{
			Name:            info.Name,
			Description:     info.Description,
			NeedsCoords:     info.NeedsCoords,
			PowerOfTwoParts: info.PowerOfTwoParts,
			Stochastic:      info.Stochastic,
			Objectives:      objectives,
		})
	}
	writeJSON(w, http.StatusOK, AlgosResponse{API: APIVersion, Algos: out})
}

func (s *httpServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	var peer *PeerStats
	if s.peers != nil {
		ps := s.peers.Stats()
		peer = &ps
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Version: APIVersion,
		Stats:   s.e.Stats(),
		Store:   s.store.Stats(),
		Quota:   s.quota.Stats(),
		Peer:    peer,
	})
}

// optionsFromSpec maps a wire spec onto algo.Options.
func optionsFromSpec(spec *JobSpec) (algo.Options, *RequestError) {
	opts := algo.Options{
		Parts:        spec.Parts,
		Seed:         spec.Seed,
		Generations:  spec.Generations,
		PopSize:      spec.PopSize,
		Islands:      spec.Islands,
		RefinePasses: spec.RefinePasses,
		CoarsestSize: spec.CoarsestSize,
		LanczosIter:  spec.LanczosIter,
	}
	o, err := partition.ParseObjective(spec.Objective)
	if err != nil {
		return opts, reqErr("bad_objective", "unknown objective %q (want cut, maxcut, or commvol)", spec.Objective)
	}
	opts.Objective = o
	return opts, nil
}

type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, code, message string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = message
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteJSON, WriteError, EnvelopeHandler, and ValidateGraphRef are the
// envelope primitives exported for the fleet router (cmd/partroute), which
// must speak byte-for-byte the same wire shapes as a shard so clients cannot
// tell a routed fleet from a single daemon.

// WriteJSON writes v as the API's indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteError writes the structured error envelope.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	writeError(w, status, code, message)
}

// EnvelopeHandler wraps h so its mux-generated plain-text 404/405 responses
// are rewritten into the JSON error envelope.
func EnvelopeHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(&envelopeWriter{rw: w}, r)
	})
}

// ValidateGraphRef checks the wire shape of a graph reference; nil means ok.
func ValidateGraphRef(ref string) *RequestError { return validateGraphRef(ref) }
