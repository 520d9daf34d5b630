package engine

import (
	"context"
	"fmt"

	"respeed/internal/energy"
	"respeed/internal/stats"
)

// This file exports the engine's seed-pinned chunk fan-out as a
// resumable, serializable surface: a replication campaign can execute
// its 64 chunks on different machines, at different times, or across a
// process crash, and merging the chunk estimates in index order yields
// the exact bytes ReplicatePatternParallelCtx would have produced in one
// uninterrupted run. internal/jobs journals one ChunkEstimate per
// completed shard, which is what makes a killed campaign resumable
// without re-executing finished chunks — the repo applying the paper's
// checkpoint-and-re-execute discipline to its own workloads.

// ChunkCount returns the number of chunks an n-replication campaign is
// partitioned into: the fixed fan-out constant, clamped to n. Chunking
// by a constant — never by worker count — is what makes the merged
// estimate independent of parallelism.
func ChunkCount(n int) int {
	if n < replicateChunks {
		return n
	}
	return replicateChunks
}

// ChunkBounds returns the replication index range [lo, hi) of chunk c
// out of chunks over n replications — the same partition chunkedFanOut
// uses internally.
func ChunkBounds(n, chunks, c int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// ChunkEstimate is the mergeable partial state of one executed chunk:
// raw Welford sufficient statistics, not derived summaries, so merges
// of serialized-and-decoded chunks are bit-identical to merges of
// in-memory ones (stats.Welford JSON round-trips losslessly).
type ChunkEstimate struct {
	Time          stats.Welford `json:"time"`
	Energy        stats.Welford `json:"energy"`
	TimePerWork   stats.Welford `json:"time_per_work"`
	EnergyPerWork stats.Welford `json:"energy_per_work"`
	Attempts      int           `json:"attempts"`
}

// state snapshots an estimator as its exported chunk form.
func (a *estimator) state() ChunkEstimate {
	return ChunkEstimate{
		Time:          a.tw,
		Energy:        a.ew,
		TimePerWork:   a.tpw,
		EnergyPerWork: a.epw,
		Attempts:      a.attempts,
	}
}

// mergeState folds a chunk snapshot directly into the accumulator —
// the same index-order merge as estimator.merge, without rebuilding an
// intermediate *estimator per chunk.
func (a *estimator) mergeState(ce ChunkEstimate) {
	a.tw.Merge(ce.Time)
	a.ew.Merge(ce.Energy)
	a.tpw.Merge(ce.TimePerWork)
	a.epw.Merge(ce.EnergyPerWork)
	a.attempts += ce.Attempts
}

// ReplicatePatternChunkCtx executes replications [lo, hi) of chunk
// `chunk` of an n-replication pattern campaign and returns the chunk's
// partial estimate. All randomness derives from (seed, chunk): running
// the chunks of ChunkCount(n) in any order, on any machines, and
// merging them with MergeChunkEstimates reproduces
// ReplicatePatternParallelCtx's result exactly. The chunk loop polls
// ctx and returns its error at the next poll boundary once cancelled,
// so an aborted campaign shard stops burning replications mid-chunk.
func ReplicatePatternChunkCtx(ctx context.Context, plan Plan, costs Costs, model energy.Model, seed uint64, chunk, lo, hi int) (ChunkEstimate, error) {
	if err := plan.Validate(); err != nil {
		return ChunkEstimate{}, err
	}
	if err := costs.Validate(); err != nil {
		return ChunkEstimate{}, err
	}
	if chunk < 0 || lo < 0 || hi < lo {
		return ChunkEstimate{}, fmt.Errorf("engine: invalid chunk range chunk=%d [%d,%d)", chunk, lo, hi)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	acc := estimator{w: plan.W}
	if err := runPatternChunk(ctx, plan, costs, model, seed, chunk, lo, hi, &acc); err != nil {
		return ChunkEstimate{}, err
	}
	return acc.state(), nil
}

// MergeChunkEstimates folds the per-chunk partial estimates — which MUST
// be supplied in chunk-index order, the order chunkedFanOut merges in —
// into the final n-replication Estimate.
func MergeChunkEstimates(w float64, n int, parts []ChunkEstimate) Estimate {
	total := estimator{w: w}
	for _, p := range parts {
		total.mergeState(p)
	}
	return total.estimate(n)
}
