package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/gio"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/service"
)

// The partd-mix traffic. Rates and sizes are fixed for a 2-core host: the
// offered rate is about half the throughput two closed-loop connections
// reach on this mix.
const (
	partdRate      = 200.0 // offered requests per second (open loop)
	partdConns     = 2     // client connections
	partdLimit     = 100 * time.Millisecond
	partdParts     = 8
	partdSeeds     = 4    // job seeds per stored graph
	partdZipfS     = 1.1  // Zipf exponent over the job keys
	partdFreshFrac = 0.05 // share of requests uploading a new graph
	partdRepFrac   = 0.05 // share re-uploading a stored graph (dedup)
	// partdCacheShare sizes the result cache as a share of the bytes all
	// job keys' results would take, so the Zipf tail is evicted.
	partdCacheShare = 0.7
)

var (
	partdCatalogSizes = []int{2000, 3000, 4000, 5000, 6500, 8000}
	partdFreshSizes   = []int{2000, 5000, 10000, 20000}
	partdAlgos        = []string{"multilevel-kl", "multilevel-fm"}
)

// partdGraph is one generated input graph and its upload body.
type partdGraph struct {
	g       *graph.Graph
	metis   []byte // the METIS payload
	putBody []byte // PUT /v1/graphs request body
	hash    string // as the daemon answered the set-up upload
}

// partdKey is one job identity: stored graph × seed × algorithm.
type partdKey struct {
	graph int
	seed  int64
	algo  string
	body  []byte // POST /v1/jobs request body
}

const (
	reqJob = iota
	reqFresh
	reqRepeat
)

// partdReq is one scheduled request and what came back.
type partdReq struct {
	seq   int           // position in the schedule; the request's span op id
	kind  int           // reqJob, reqFresh or reqRepeat
	index int           // key (reqJob), fresh graph (reqFresh) or catalog graph (reqRepeat)
	due   time.Duration // offset from the schedule start

	dispatched, sent, done time.Duration
	status                 int
	size                   int              // response body bytes
	body                   []byte           // response body, unless decoded into job
	job                    *service.JobInfo // a job response's single job
	err                    error
}

// daemon is one in-process partd: engine, handler and HTTP server on a
// loopback port.
type daemon struct {
	eng    *service.Engine
	srv    *http.Server
	url    string
	client *http.Client
	served chan error
}

func bootDaemon(cacheBytes int64) (*daemon, error) {
	eng := service.New(service.Config{Workers: benchWorkers, JobParallelism: 1, CacheBytes: cacheBytes})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("partd listen: %w", err)
	}
	d := &daemon{
		eng:    eng,
		srv:    &http.Server{Handler: service.NewHandler(eng)},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: partdConns, MaxIdleConnsPerHost: partdConns}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for it and the engine to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.client.CloseIdleConnections()
	d.eng.Close()
	return err
}

// do sends one request and reads the whole response body.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// partdInputs is everything the traffic is made from.
type partdInputs struct {
	catalog []*partdGraph
	fresh   []*partdGraph
	keys    []partdKey
	sched   []*partdReq
}

// makeGraph generates a connected random geometric graph with about six
// neighbors per node and encodes its upload.
func makeGraph(n int, seed int64) (*partdGraph, error) {
	g := gen.RandomGeometric(rand.New(rand.NewSource(seed)), n, math.Sqrt(6/(math.Pi*float64(n))))
	var buf bytes.Buffer
	if err := gio.WriteMETIS(&buf, g); err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.GraphPutRequest{Format: "metis", Graph: buf.String()})
	if err != nil {
		return nil, err
	}
	return &partdGraph{g: g, metis: buf.Bytes(), putBody: body}, nil
}

// makeInputs generates the stored catalog, the fresh uploads and the
// request schedule from the seed. The schedule's make-up is fixed: each
// job key is asked for its Zipf share of the requests (largest remainders
// rounded up), uploads take fixed shares, and keys are ranked by a fixed
// rule (rank r → graph r mod 6). The seed changes the graphs and the order
// of the requests, so every seed offers the same load.
func makeInputs(cfg config) (*partdInputs, error) {
	scale, seconds := 1.0, cfg.seconds
	if cfg.toy {
		scale, seconds = 0.1, min(seconds, 1) // the smoke test's toy mix
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &partdInputs{}
	for i, n := range partdCatalogSizes {
		pg, err := makeGraph(int(float64(n)*scale), cfg.seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		in.catalog = append(in.catalog, pg)
	}
	count := int(math.Round(partdRate * seconds))
	fresh := int(math.Round(partdFreshFrac * float64(count)))
	repeat := int(math.Round(partdRepFrac * float64(count)))
	for i := 0; i < fresh; i++ {
		n := partdFreshSizes[i%len(partdFreshSizes)]
		pg, err := makeGraph(int(float64(n)*scale), cfg.seed*1000+500+int64(i))
		if err != nil {
			return nil, err
		}
		in.fresh = append(in.fresh, pg)
		in.sched = append(in.sched, &partdReq{kind: reqFresh, index: i})
	}
	for i := 0; i < repeat; i++ {
		in.sched = append(in.sched, &partdReq{kind: reqRepeat, index: i % len(in.catalog)})
	}
	for _, k := range zipfCounts(count-fresh-repeat, len(partdCatalogSizes)*partdSeeds*len(partdAlgos)) {
		for i := 0; i < k.n; i++ {
			in.sched = append(in.sched, &partdReq{kind: reqJob, index: k.rank})
		}
	}
	rng.Shuffle(len(in.sched), func(i, j int) { in.sched[i], in.sched[j] = in.sched[j], in.sched[i] })
	for i, req := range in.sched {
		req.seq = i
		req.due = time.Duration(float64(i) / partdRate * float64(time.Second))
	}
	return in, nil
}

type rankCount struct{ rank, n int }

// zipfCounts splits total requests over ranks in proportion to
// 1/(1+rank)^partdZipfS, rounding by largest remainder.
func zipfCounts(total, ranks int) []rankCount {
	weights := make([]float64, ranks)
	norm := 0.0
	for r := range weights {
		weights[r] = math.Pow(1+float64(r), -partdZipfS)
		norm += weights[r]
	}
	out := make([]rankCount, ranks)
	left := total
	for r := range out {
		out[r] = rankCount{r, int(float64(total) * weights[r] / norm)}
		left -= out[r].n
	}
	byRemainder := make([]int, ranks)
	for r := range byRemainder {
		byRemainder[r] = r
	}
	frac := func(r int) float64 {
		x := float64(total) * weights[r] / norm
		return x - math.Floor(x)
	}
	sort.SliceStable(byRemainder, func(i, j int) bool { return frac(byRemainder[i]) > frac(byRemainder[j]) })
	for _, r := range byRemainder[:left] {
		out[r].n++
	}
	return out
}

// jobKeys builds one key per rank once the catalog's hashes are known.
func (in *partdInputs) jobKeys() error {
	in.keys = in.keys[:0]
	nAlgo := len(partdAlgos)
	for r := 0; r < len(in.catalog)*partdSeeds*nAlgo; r++ {
		k := partdKey{graph: r % len(in.catalog), algo: partdAlgos[(r/len(in.catalog))%nAlgo], seed: int64(r / (len(in.catalog) * nAlgo))}
		body, err := json.Marshal(service.BatchRequest{
			Graph: in.catalog[k.graph].hash,
			Specs: []service.JobSpec{{Algo: k.algo, Parts: partdParts, Seed: k.seed}},
			Wait:  true,
		})
		if err != nil {
			return err
		}
		k.body = body
		in.keys = append(in.keys, k)
	}
	return nil
}

// cacheBudget sizes the result cache below the job keys' working set,
// counting each result as the engine does: 2 bytes per node, twice the
// cache key's length (about 130 characters here) and a fixed 256-byte
// entry overhead.
func (in *partdInputs) cacheBudget() int64 {
	total := 0.0
	for _, pg := range in.catalog {
		total += float64(partdSeeds*len(partdAlgos)) * float64(2*pg.g.NumNodes()+2*130+256)
	}
	return int64(total * partdCacheShare)
}

// setupDaemon boots a daemon, uploads the catalog, builds the job keys over
// the hashes it answered, and warms the result cache by asking for every
// key once, least popular first: the run then measures the steady state,
// where misses are the keys the budget evicted.
func setupDaemon(in *partdInputs) (*daemon, error) {
	d, err := bootDaemon(in.cacheBudget())
	if err != nil {
		return nil, err
	}
	if err := uploadCatalog(d, in); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	if err := in.jobKeys(); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	for i := len(in.keys) - 1; i >= 0; i-- {
		if status, body, err := d.do(http.MethodPost, "/v1/jobs", in.keys[i].body); err != nil || status != http.StatusOK {
			return nil, errors.Join(fmt.Errorf("warm-up job %d: %d %.200s", i, status, body), err, d.stop())
		}
	}
	return d, nil
}

func uploadCatalog(d *daemon, in *partdInputs) error {
	for i, pg := range in.catalog {
		status, body, err := d.do(http.MethodPut, "/v1/graphs", pg.putBody)
		if err != nil {
			return fmt.Errorf("upload catalog graph %d: %w", i, err)
		}
		var resp service.GraphPutResponse
		if status != http.StatusCreated || json.Unmarshal(body, &resp) != nil {
			return fmt.Errorf("upload catalog graph %d: status %d: %s", i, status, body)
		}
		if pg.hash != "" && pg.hash != resp.Hash {
			return fmt.Errorf("upload catalog graph %d: hash %s, earlier boot gave %s", i, resp.Hash, pg.hash)
		}
		pg.hash = resp.Hash
	}
	return nil
}

// drive plays the schedule against d: a dispatcher hands each request to
// the connection workers at its due time, and latency runs from the due
// time, so a stall delays every request queued behind it.
func drive(d *daemon, in *partdInputs, tr *tracer) {
	queue := make(chan *partdReq, len(in.sched)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < partdConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range queue {
				path, method, body := "/v1/jobs", http.MethodPost, []byte(nil)
				switch req.kind {
				case reqJob:
					body = in.keys[req.index].body
				case reqFresh:
					path, method, body = "/v1/graphs", http.MethodPut, in.fresh[req.index].putBody
				case reqRepeat:
					path, method, body = "/v1/graphs", http.MethodPut, in.catalog[req.index].putBody
				}
				req.sent = time.Since(start)
				id := tr.begin(method+" "+path, req.seq, -1)
				req.status, req.body, req.err = d.do(method, path, body)
				tr.end(id)
				req.done = time.Since(start)
				req.size = len(req.body)
				// Decoding here keeps only the assignment, not the JSON text,
				// for the checks after the run.
				var resp service.BatchResponse
				if req.kind == reqJob && req.status == http.StatusOK &&
					json.Unmarshal(req.body, &resp) == nil && len(resp.Jobs) == 1 {
					req.job, req.body = &resp.Jobs[0], nil
				}
			}
		}()
	}
	for _, req := range in.sched {
		if wait := req.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		req.dispatched = time.Since(start)
		queue <- req
	}
	close(queue)
	wg.Wait()
}

// jobOutcome is what a checked job response reported.
type jobOutcome struct {
	cached    bool
	computeNS int64
	cut       float64
	balance   float64
}

// verifyPartd checks every response. Uploads must answer the content hash
// of the payload (recomputed here with gio.ReadMETIS and service.GraphHash)
// and whether it was stored before. Jobs must be done, pass the partition
// checks against the uploaded graph, and return the same assignment every
// time a key is asked for.
func verifyPartd(r *run, in *partdInputs) (outcomes map[*partdReq]jobOutcome, parsedMB float64) {
	hashes := map[*partdGraph]string{}
	expectHash := func(pg *partdGraph) (string, error) {
		if h, ok := hashes[pg]; ok {
			return h, nil
		}
		id := r.tr.begin("gio.ReadMETIS", -1, -1)
		parsed, err := gio.ReadMETIS(bytes.NewReader(pg.metis))
		r.tr.end(id)
		if err != nil {
			return "", err
		}
		id = r.tr.begin("service.GraphHash", -1, -1)
		h := service.GraphHash(parsed)
		r.tr.end(id)
		hashes[pg] = h
		parsedMB += float64(len(pg.metis)) / mb
		return h, nil
	}
	first := map[int]*partition.Partition{}
	uploaded := map[*partdGraph]bool{}
	for _, pg := range in.catalog {
		uploaded[pg] = true
	}
	outcomes = map[*partdReq]jobOutcome{}
	for i, req := range in.sched {
		r.attempted++
		if req.err != nil {
			r.fail("request %d: %v", i, req.err)
			continue
		}
		if req.kind != reqJob {
			var pg *partdGraph
			if req.kind == reqFresh {
				pg = in.fresh[req.index]
			} else {
				pg = in.catalog[req.index]
			}
			want, err := expectHash(pg)
			if err != nil {
				r.fail("request %d: parse own payload: %v", i, err)
				continue
			}
			var resp service.GraphPutResponse
			wantStatus := map[bool]int{true: http.StatusOK, false: http.StatusCreated}[uploaded[pg]]
			if err := json.Unmarshal(req.body, &resp); err != nil || req.status != wantStatus ||
				resp.Hash != want || resp.Existed != uploaded[pg] || resp.Nodes != pg.g.NumNodes() {
				r.fail("request %d: upload answered %d %s, want %d with hash %s", i, req.status, req.body, wantStatus, want)
			}
			uploaded[pg] = true
			continue
		}
		k := in.keys[req.index]
		job := req.job
		if job == nil {
			r.fail("request %d: job answered %d %.200s", i, req.status, req.body)
			continue
		}
		if job.State != service.StateDone || job.Result == nil {
			r.fail("request %d: job %s: %s", i, job.State, job.Error)
			continue
		}
		g := in.catalog[k.graph].g
		p := &partition.Partition{Assign: job.Result.Assign, Parts: job.Result.Parts}
		vd, err := checkPartition(g, p, partdParts, job.Result.Cut)
		if err != nil {
			r.fail("request %d: %v", i, err)
			continue
		}
		if prev, ok := first[req.index]; !ok {
			first[req.index] = p
		} else if !sameAssign(prev, p) {
			r.fail("request %d: key %d answered two different partitions", i, req.index)
			continue
		}
		outcomes[req] = jobOutcome{cached: job.Cached, computeNS: job.Result.ComputeNS, cut: vd.cut, balance: vd.balance}
	}
	return outcomes, parsedMB
}

// runPartd boots the daemon with the catalog uploaded (three times; set-up
// is their median), plays the schedule, then checks every response.
func runPartd(cfg config, r *run) error {
	var in *partdInputs
	var d *daemon
	var setups []float64
	for i := 0; i < 3; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		t := time.Now()
		var err error
		if in, err = makeInputs(cfg); err != nil {
			return err
		}
		if d, err = setupDaemon(in); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups))

	untraced := 0.0
	if cfg.trace {
		// The same schedule untraced, against a fresh daemon, first: the
		// ratio of summed latencies is the tracing overhead.
		drive(d, in, &tracer{})
		untraced = busy(in.sched)
		if err := d.stop(); err != nil {
			return err
		}
		var err error
		if d, err = setupDaemon(in); err != nil {
			return err
		}
		for _, req := range in.sched {
			*req = partdReq{seq: req.seq, kind: req.kind, index: req.index, due: req.due}
		}
	}
	before, err := d.stats()
	if err != nil {
		return errors.Join(err, d.stop())
	}
	a0 := allocated()
	drive(d, in, r.tr)
	r.set("alloc_mb", float64(allocated()-a0)/float64(len(in.sched))/mb)
	after, err := d.stats()
	if err := errors.Join(err, d.stop()); err != nil {
		return err
	}
	if cfg.trace {
		r.set("trace.overhead", busy(in.sched)/untraced)
	}

	outcomes, parsedMB := verifyPartd(r, in)
	var lat, hit, miss, compute, queueMS, upload, late []float64
	var respBytes, jobs, balance float64
	keyCut := map[int]float64{}
	good := 0
	for _, req := range in.sched {
		l := float64((req.done - req.due).Nanoseconds()) / 1e6
		lat = append(lat, l)
		late = append(late, float64((req.dispatched-req.due).Nanoseconds())/1e6)
		service := float64((req.done - req.sent).Nanoseconds()) / 1e6
		if req.kind != reqJob {
			upload = append(upload, service)
			if req.err == nil && time.Duration(l*1e6) <= partdLimit {
				good++
			}
			continue
		}
		out, ok := outcomes[req]
		if !ok {
			continue
		}
		if time.Duration(l*1e6) <= partdLimit {
			good++
		}
		jobs++
		respBytes += float64(req.size)
		keyCut[req.index] = out.cut
		balance = max(balance, out.balance)
		if out.cached {
			hit = append(hit, service)
		} else {
			miss = append(miss, service)
			compute = append(compute, float64(out.computeNS)/1e6)
			queueMS = append(queueMS, service-float64(out.computeNS)/1e6)
		}
	}
	if !cfg.trace {
		r.set("op_p50_ms", median(lat))
		r.set("op_tail_ms", quantile(lat, 0.98))
		end := time.Duration(0)
		for _, req := range in.sched {
			end = max(end, req.done)
		}
		// Per second from the schedule's start to its last answer, so a
		// backlog that outlasts the schedule lowers the rate.
		r.set("goodput_per_s", float64(good)/end.Seconds())
		// The mean over the distinct job keys answered: each key's cut is
		// deterministic, and weighting every key once keeps the few most
		// popular graphs from dominating the figure.
		var ranks []int
		for k := range keyCut {
			ranks = append(ranks, k)
		}
		sort.Ints(ranks)
		var cuts []float64
		for _, k := range ranks {
			cuts = append(cuts, keyCut[k])
		}
		if len(cuts) > 0 {
			r.set("cut", sum(cuts)/float64(len(cuts)))
		}
		r.set("balance", balance)
		return nil
	}
	r.set("service.hit_ms", median(hit))
	r.set("service.miss_ms", median(miss))
	r.set("service.compute_ms", median(compute))
	r.set("service.queue_ms", median(queueMS))
	if jobs > 0 {
		r.set("service.resp_kb", respBytes/jobs/1024)
	}
	r.set("service.upload_ms", median(upload))
	r.set("loadgen.late_p99_ms", quantile(late, 0.99))
	if parsedMB > 0 {
		r.set("gio.parse_ms_per_mb", sum(r.tr.ms("gio.ReadMETIS"))/parsedMB)
	}
	r.set("service.hash_ms", median(r.tr.ms("service.GraphHash")))
	// Counter deltas over the measured schedule, set-up traffic excluded.
	if puts := after.Store.Puts - before.Store.Puts; puts > 0 {
		r.set("service.store_dedup_rate", float64(after.Store.Dedups-before.Store.Dedups)/float64(puts))
	}
	hits := after.CacheHits - before.CacheHits
	if asked := hits + after.Coalesced - before.Coalesced + after.CacheMisses - before.CacheMisses; asked > 0 {
		r.set("service.hit_rate", float64(hits)/float64(asked))
	}
	r.set("service.coalesced", float64(after.Coalesced-before.Coalesced))
	r.set("service.cache_evictions", float64(after.CacheEvictions-before.CacheEvictions))
	return nil
}

// stats reads GET /v1/stats.
func (d *daemon) stats() (service.StatsResponse, error) {
	var s service.StatsResponse
	status, body, err := d.do(http.MethodGet, "/v1/stats", nil)
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &s)
	} else if err == nil {
		err = fmt.Errorf("stats: %d %.200s", status, body)
	}
	return s, err
}

// busy sums the requests' send-to-done times in seconds.
func busy(sched []*partdReq) float64 {
	t := 0.0
	for _, req := range sched {
		t += (req.done - req.sent).Seconds()
	}
	return t
}
