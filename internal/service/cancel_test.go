package service_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/service"
)

// blockBehavior is the controllable body of the test-only "test-block"
// algorithm: tests swap it to observe the engine's lifecycle transitions
// deterministically instead of racing real algorithm timings.
var blockBehavior atomic.Pointer[func(g *graph.Graph, opt algo.Options) (*partition.Partition, error)]

func init() {
	algo.Register(algo.New(
		algo.Info{Name: "test-block", Description: "controllable partitioner for lifecycle tests", Stochastic: true},
		func(g *graph.Graph, opt algo.Options) (*partition.Partition, error) {
			if fn := blockBehavior.Load(); fn != nil {
				return (*fn)(g, opt)
			}
			return algo.Run(g, "grow", algo.Options{Parts: opt.Parts})
		}))
}

// blockController wires one test to the test-block algorithm: every run
// announces itself on started, then parks at a "checkpoint" until its
// context is cancelled (returning a valid early partition, as the real
// refiners do between passes) or the test releases it.
type blockController struct {
	started chan struct{}
	release chan struct{}
}

func installBlock(t *testing.T) *blockController {
	t.Helper()
	c := &blockController{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	fn := func(g *graph.Graph, opt algo.Options) (*partition.Partition, error) {
		c.started <- struct{}{}
		done := make(<-chan struct{})
		if opt.Ctx != nil {
			done = opt.Ctx.Done()
		}
		select {
		case <-done:
		case <-c.release:
		}
		return algo.Run(g, "grow", algo.Options{Parts: opt.Parts})
	}
	blockBehavior.Store(&fn)
	t.Cleanup(func() { blockBehavior.Store(nil) })
	return c
}

func (c *blockController) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-c.started:
	case <-time.After(10 * time.Second):
		t.Fatal("test-block run never started")
	}
}

// A queued job dies immediately on cancel: no worker ever runs it, its
// waiters wake at once, and the stats record the cancellation.
func TestCancelQueuedJobImmediate(t *testing.T) {
	ctl := installBlock(t)
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	defer close(ctl.release)
	g := testGraph(t)

	running, err := e.Submit(stored(g), "test-block", algo.Options{Parts: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctl.waitStarted(t)
	queued, err := e.Submit(stored(g), "test-block", algo.Options{Parts: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	info, err := e.CancelJob(queued.ID)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if info.State != service.StateCancelled {
		t.Fatalf("state %s after cancelling a queued job, want cancelled", info.State)
	}
	// The wait returns promptly — nothing is computing this job.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	final, err := e.WaitJob(ctx, queued.ID)
	if err != nil {
		t.Fatalf("wait on cancelled job: %v", err)
	}
	if final.State != service.StateCancelled || final.Result != nil {
		t.Fatalf("final %+v, want cancelled without result", final)
	}
	if s := e.Stats(); s.JobsCancelled != 1 {
		t.Errorf("JobsCancelled %d, want 1", s.JobsCancelled)
	}
	// Idempotent: cancelling again is a no-op, not an error.
	if _, err := e.CancelJob(queued.ID); err != nil {
		t.Errorf("second cancel: %v", err)
	}
	if s := e.Stats(); s.JobsCancelled != 1 {
		t.Errorf("JobsCancelled %d after idempotent re-cancel, want 1", s.JobsCancelled)
	}
	_ = running
}

// A running job observes its cancellation at the algorithm's next
// checkpoint, the waiter gets a cancelled snapshot, and the discarded
// partial result never enters the cache.
func TestCancelRunningJobObservedAndNeverCached(t *testing.T) {
	ctl := installBlock(t)
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	g := testGraph(t)
	opts := algo.Options{Parts: 2, Seed: 3}

	info, err := e.Submit(stored(g), "test-block", opts)
	if err != nil {
		t.Fatal(err)
	}
	ctl.waitStarted(t)
	if _, err := e.CancelJob(info.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := e.WaitJob(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateCancelled || final.Result != nil {
		t.Fatalf("final %+v, want cancelled without result", final)
	}

	// The identical request must recompute: a cancelled run's result (the
	// algorithm did return a valid partition at its checkpoint) is discarded,
	// never cached.
	close(ctl.release)
	again, err := e.Submit(stored(g), "test-block", opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Fatal("resubmission after cancel served from cache")
	}
	ctl.waitStarted(t)
	finalAgain := waitDone(t, e, again.ID)
	if finalAgain.State != service.StateDone {
		t.Fatalf("recompute state %s (%s)", finalAgain.State, finalAgain.Error)
	}
}

// Cancelling one job of a coalesced group only detaches that job: the
// shared computation completes for the sibling, and the sibling's result is
// untouched.
func TestCancelCoalescedJobLeavesSibling(t *testing.T) {
	ctl := installBlock(t)
	e := service.New(service.Config{Workers: 1})
	defer e.Close()
	g := testGraph(t)
	opts := algo.Options{Parts: 2, Seed: 4}

	a, err := e.Submit(stored(g), "test-block", opts)
	if err != nil {
		t.Fatal(err)
	}
	ctl.waitStarted(t)
	b, err := e.Submit(stored(g), "test-block", opts) // coalesces onto a's computation
	if err != nil {
		t.Fatal(err)
	}
	if !b.Cached {
		t.Fatal("identical in-flight request did not coalesce")
	}

	if _, err := e.CancelJob(b.ID); err != nil {
		t.Fatalf("cancel coalesced job: %v", err)
	}
	// b's waiter wakes promptly even though the computation keeps running.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	bFinal, err := e.WaitJob(ctx, b.ID)
	if err != nil {
		t.Fatalf("wait on cancelled coalesced job: %v", err)
	}
	if bFinal.State != service.StateCancelled {
		t.Fatalf("coalesced job state %s, want cancelled", bFinal.State)
	}

	close(ctl.release)
	aFinal := waitDone(t, e, a.ID)
	if aFinal.State != service.StateDone || aFinal.Result == nil {
		t.Fatalf("sibling state %s (%s), want done", aFinal.State, aFinal.Error)
	}

	// Too late to cancel a finished job: typed job_finished conflict.
	_, err = e.CancelJob(a.ID)
	var re *service.RequestError
	if !errors.As(err, &re) || re.Code != "job_finished" {
		t.Fatalf("cancel of finished job: %v, want job_finished RequestError", err)
	}
	// Unknown ids are ErrNoJob.
	if _, err := e.CancelJob("zzz"); !errors.Is(err, service.ErrNoJob) {
		t.Fatalf("cancel of unknown job: %v, want ErrNoJob", err)
	}
}

// A context-cancelled algo.Run returns early with a valid partition at a
// pass boundary — the contract the engine's cancellation rides on, checked
// here against the real refinement-based algorithms.
func TestAlgoRunHonorsCancelledContext(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every checkpoint fires on first poll
	for _, name := range []string{"kl", "fm", "multilevel-kl", "multilevel-fm", "dknux"} {
		start := time.Now()
		p, err := algo.Run(g, name, algo.Options{Parts: 4, Seed: 1, Ctx: ctx,
			Generations: 50, PopSize: 32, Islands: 4})
		if err != nil {
			t.Fatalf("%s with cancelled ctx: %v", name, err)
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("%s early partition invalid: %v", name, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("%s took %v despite pre-cancelled ctx", name, elapsed)
		}
	}
}

// Close never strands a SubmitWait: queued jobs fail with the typed
// ErrEngineClosed error and every concurrent waiter returns. This is the
// regression test for the Close-vs-SubmitWait race.
func TestCloseVsSubmitWaitRace(t *testing.T) {
	ctl := installBlock(t)
	e := service.New(service.Config{Workers: 1, MaxQueue: 64})
	g := testGraph(t)

	// Occupy the single worker so every subsequent submission queues.
	running, err := e.Submit(stored(g), "test-block", algo.Options{Parts: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctl.waitStarted(t)

	const waiters = 8
	var wg sync.WaitGroup
	type outcome struct {
		info service.JobInfo
		err  error
	}
	results := make([]outcome, waiters)
	enqueued := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			// Distinct seeds: distinct queued computations.
			j, err := e.Submit(stored(g), "test-block", algo.Options{Parts: 2, Seed: int64(100 + i)})
			enqueued <- struct{}{}
			if err != nil {
				results[i] = outcome{err: err}
				return
			}
			info, err := e.WaitJob(ctx, j.ID)
			results[i] = outcome{info: info, err: err}
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-enqueued
	}

	closed := make(chan struct{})
	go func() {
		e.Close() // fails the queue, then blocks on the running job
		close(closed)
	}()
	// Give Close a moment to take the lock and fail the queue, then let the
	// running job finish so Close can drain the pool.
	time.Sleep(50 * time.Millisecond)
	close(ctl.release)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close never returned")
	}
	wg.Wait()

	for i, r := range results {
		switch {
		case r.err == nil && r.info.State == service.StateFailed:
			if !strings.Contains(r.info.Error, "engine_closed") {
				t.Errorf("waiter %d failed without the typed engine_closed error: %q", i, r.info.Error)
			}
		case r.err == nil && r.info.State == service.StateDone:
			// Raced ahead of Close and actually computed — also fine.
		case r.err != nil && errors.Is(r.err, service.ErrEngineClosed):
			// Submitted after Close won the lock.
		default:
			t.Errorf("waiter %d: err %v, info %+v", i, r.err, r.info)
		}
	}
	final := waitDone(t, e, running.ID)
	if final.State != service.StateDone {
		t.Errorf("running job state %s after Close, want done (Close lets running jobs finish)", final.State)
	}
	if _, err := e.Submit(stored(g), "grow", algo.Options{Parts: 2}); !errors.Is(err, service.ErrEngineClosed) {
		t.Errorf("Submit after Close: %v, want ErrEngineClosed", err)
	}
}
