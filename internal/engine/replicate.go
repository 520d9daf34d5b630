package engine

import (
	"context"
	"fmt"
	"runtime"

	"respeed/internal/energy"
	"respeed/internal/stats"
)

// estimator accumulates pattern results into Welford summaries, with
// per-work normalization against w. The accumulation order matches the
// historical sequential replication loop exactly.
type estimator struct {
	w                float64
	tw, ew, tpw, epw stats.Welford
	attempts         int
}

func newEstimator(w float64) *estimator { return &estimator{w: w} }

func (a *estimator) add(r PatternResult) {
	a.tw.Add(r.Time)
	a.ew.Add(r.Energy)
	a.tpw.Add(r.Time / a.w)
	a.epw.Add(r.Energy / a.w)
	a.attempts += r.Attempts
}

// merge folds another estimator in (chunk-merge order matters for bit
// reproducibility — always merge in index order).
func (a *estimator) merge(o *estimator) {
	a.tw.Merge(o.tw)
	a.ew.Merge(o.ew)
	a.tpw.Merge(o.tpw)
	a.epw.Merge(o.epw)
	a.attempts += o.attempts
}

func (a *estimator) estimate(n int) Estimate {
	return Estimate{
		Time:          a.tw.Summarize(),
		Energy:        a.ew.Summarize(),
		TimePerWork:   a.tpw.Summarize(),
		EnergyPerWork: a.epw.Summarize(),
		MeanAttempts:  float64(a.attempts) / float64(n),
		Patterns:      n,
	}
}

// replicateChunks is the fixed work-partition count for parallel
// replication. Chunking by a constant — not by worker count — makes the
// result bit-identical for any GOMAXPROCS: chunk i always consumes the
// stream seed/"chunk-i", and chunk accumulators merge in index order.
const replicateChunks = 64

// ctxPollMask throttles in-chunk cancellation polls: replication loops
// check ctx.Err() once every ctxPollMask+1 iterations, so a cancelled
// context is observed well under one chunk boundary without putting a
// branch-per-pattern on the hot path's profile.
const ctxPollMask = 1023

// ReplicateWorkers resolves the worker-pool size: non-positive selects
// GOMAXPROCS, and the pool is clamped to the chunk count — each worker
// consumes at least one chunk, so any goroutine beyond chunks would be
// spawned only to exit idle.
func ReplicateWorkers(workers, chunks int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	return workers
}

// chunkedFanOut runs n replications split over at most replicateChunks
// chunks on the shared executor and merges the chunk estimators in
// index order. runChunk(ctx, chunk, lo, hi, acc) executes replications
// [lo, hi) of chunk into acc; it must derive all randomness from the
// chunk index so the result is deterministic in (seed, n) and
// independent of worker count and scheduling.
func chunkedFanOut(ctx context.Context, n, workers int, w float64, runChunk func(ctx context.Context, chunk, lo, hi int, acc *estimator) error) (Estimate, error) {
	if n < 1 {
		return Estimate{}, fmt.Errorf("engine: replication count must be ≥ 1")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	chunks := replicateChunks
	if chunks > n {
		chunks = n
	}
	workers = ReplicateWorkers(workers, chunks)

	// Value slices: one estimator per chunk, merged in index order below
	// — no per-chunk heap allocations beyond the two slices themselves.
	accs := make([]estimator, chunks)
	errs := make([]error, chunks)
	ferr := SharedExecutor().FanOut(ctx, chunks, workers, func(c int) error {
		lo, hi := ChunkBounds(n, chunks, c)
		accs[c].w = w
		errs[c] = runChunk(ctx, c, lo, hi, &accs[c])
		return errs[c]
	})
	// Scan recorded errors in chunk-index order so the reported error is
	// deterministic regardless of which worker tripped first.
	for c := 0; c < chunks; c++ {
		if errs[c] != nil {
			return Estimate{}, errs[c]
		}
	}
	if ferr != nil {
		return Estimate{}, ferr
	}
	total := estimator{w: w}
	for c := range accs {
		total.merge(&accs[c])
	}
	return total.estimate(n), nil
}

// ReplicatePatternParallelCtx runs n independent abstract pattern
// simulations fanned out over the shared executor and aggregates them
// like ReplicatePattern. The estimate is deterministic in (seed, n) and
// independent of worker count and scheduling; it does NOT reproduce
// sequential replication's exact samples (different substreams), only
// the same distribution. Once ctx is cancelled no further chunk starts,
// in-flight chunks stop at the next poll boundary, and the context's
// error is returned.
func ReplicatePatternParallelCtx(ctx context.Context, plan Plan, costs Costs, model energy.Model, seed uint64, n, workers int) (Estimate, error) {
	if err := plan.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := costs.Validate(); err != nil {
		return Estimate{}, err
	}
	// One kernel for the whole call: its fault-channel cutoffs cost a few
	// bisections to build, which must not be paid per chunk.
	k := newPatternKernel(plan, costs, model)
	return chunkedFanOut(ctx, n, workers, plan.W, func(ctx context.Context, chunk, lo, hi int, acc *estimator) error {
		return k.runChunk(ctx, seed, chunk, lo, hi, acc)
	})
}
