package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Executor is a shared, long-lived worker pool for chunked fan-outs. It
// replaces the per-call goroutine pools that ReplicatePatternParallelCtx,
// ReplicateScenario, jobs shard execution and the sweep harness each
// used to spawn and tear down: the pool's goroutines are created once
// and amortized across every call for the life of the process.
//
// Determinism is unaffected by the executor: chunk functions derive all
// randomness from their chunk index and callers merge chunk results in
// index order, so which goroutine runs which chunk — and in what
// order — never reaches the output.
//
// Scheduling model: FanOut recruits exactly `workers` dedicated
// evaluators for the call — idle pool goroutines first (a non-blocking
// handoff on an unbuffered queue, so a successful offer IS a parked
// worker), transient goroutines for any shortfall — and the calling
// goroutine feeds them chunk indices over an unbuffered channel. The
// blocking feed is what guarantees requested concurrency even under
// adversarial scheduling (evaluators must actually run to receive), and
// the spawn top-up is what makes nested fan-outs deadlock-free when the
// pool is saturated: a fan-out issued from inside a pool worker simply
// recruits fresh helpers, exactly like the per-call pools it replaced.
type Executor struct {
	queue   chan *fanTask
	workers int
	close   sync.Once
}

// NewExecutor creates an executor with the given pool size
// (non-positive selects GOMAXPROCS) and starts its workers.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{
		// Unbuffered: a ticket offer succeeds only by direct handoff to
		// a worker already parked on the queue, so success means a live
		// evaluator — never a ticket rotting in a buffer.
		queue:   make(chan *fanTask),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *Executor) Workers() int { return e.workers }

// Close stops the pool goroutines. FanOut must not be called after (or
// concurrently with) Close; the process-wide shared executor is never
// closed.
func (e *Executor) Close() { e.close.Do(func() { close(e.queue) }) }

// worker evaluates one fan-out at a time for the life of the pool.
func (e *Executor) worker() {
	for t := range e.queue {
		t.work()
	}
}

var (
	sharedOnce sync.Once
	shared     *Executor
)

// SharedExecutor returns the process-wide executor, creating it (sized
// to GOMAXPROCS) on first use. All engine replication paths, jobs shard
// execution and the sweep harness run on this pool.
func SharedExecutor() *Executor {
	sharedOnce.Do(func() { shared = NewExecutor(0) })
	return shared
}

// fanTask is one FanOut call in flight: the caller feeds chunk indices
// over idx, recruited evaluators drain it, and wg tracks fed chunks.
type fanTask struct {
	ctx     context.Context
	run     func(chunk int) error
	idx     chan int
	wg      sync.WaitGroup
	aborted atomic.Bool // stop running chunks (error or cancellation)

	mu  sync.Mutex
	err error // first chunk error
}

// work drains the task's chunk feed. After an abort remaining fed
// chunks are received and forfeited without running, so the WaitGroup
// always balances and FanOut never leaks a waiter.
func (t *fanTask) work() {
	for c := range t.idx {
		t.runChunk(c)
	}
}

// runChunk executes one fed chunk (unless the task has aborted) and
// marks it complete.
func (t *fanTask) runChunk(c int) {
	if !t.aborted.Load() && t.ctx.Err() == nil {
		if err := t.run(c); err != nil {
			t.fail(err)
		}
	}
	t.wg.Done()
}

// fail records the first error and aborts the remaining chunks.
func (t *fanTask) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
	t.aborted.Store(true)
}

// firstErr returns the recorded first chunk error, if any.
func (t *fanTask) firstErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// FanOut executes run(chunk) for every chunk in [0, chunks), with
// `workers` concurrent evaluators (non-positive selects GOMAXPROCS; the
// count is additionally clamped to chunks). It returns when every
// started chunk has finished.
//
// Cancellation: once ctx is cancelled no further chunk starts, and
// FanOut returns ctx.Err() as soon as in-flight chunks complete — chunk
// functions that poll ctx themselves (as the replication paths do)
// return well under one chunk boundary. A chunk error likewise stops
// the remaining chunks; the first error is returned.
func (e *Executor) FanOut(ctx context.Context, chunks, workers int, run func(chunk int) error) error {
	if chunks <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		// Sequential fast path: no channels, no goroutine handoffs —
		// the caller runs every chunk itself.
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(c); err != nil {
				return err
			}
		}
		return nil
	}

	t := &fanTask{ctx: ctx, run: run, idx: make(chan int)}
	e.feed(t, chunks, workers)
	if err := t.firstErr(); err != nil {
		return err
	}
	return ctx.Err()
}

// feed recruits workers evaluators for t, feeds them chunk indices
// until every chunk is fed or the task aborts, and waits for every fed
// chunk to finish. It returns how many chunks it fed.
func (e *Executor) feed(t *fanTask, chunks, workers int) int {
	recruited := 0
	for i := 0; i < workers; i++ {
		select {
		case e.queue <- t:
			recruited++
		default:
			i = workers // no more idle pool workers
		}
	}
	for ; recruited < workers; recruited++ {
		go t.work()
	}
	fed := 0
	for ; fed < chunks; fed++ {
		if t.aborted.Load() || t.ctx.Err() != nil {
			break
		}
		t.wg.Add(1)
		t.idx <- fed
	}
	close(t.idx)
	t.wg.Wait()
	return fed
}
