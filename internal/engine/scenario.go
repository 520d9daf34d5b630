package engine

import (
	"context"
	"fmt"

	"respeed/internal/detect"
	"respeed/internal/energy"
	"respeed/internal/rngx"
	"respeed/internal/trace"
)

// Scenario composes the engine's policies into one declarative
// configuration — the scenario space the four original siloed
// simulators could not express. Any combination of a fault process
// (aggregate rates, explicit per-node processes, or renewal channels),
// a checkpoint tier (single-level or memory+disk), and a verification
// discipline (guaranteed, partial+guaranteed, or none) runs through the
// same full-stack executor, e.g.:
//
//   - multi-node cluster + two-level checkpointing: Nodes + TwoLevel
//   - partial verification + fail-stop errors: Partial + Costs.LambdaF
//     (or per-node fail-stop rates)
type Scenario struct {
	// Plan is the pattern policy (W, σ1, σ2).
	Plan Plan
	// Costs supplies C, V, R and — when Nodes is empty — the aggregate
	// error rates. With Nodes set, rates belong on the nodes and
	// Costs.LambdaS/LambdaF must be zero. With TwoLevel set, Costs.C
	// is ignored (the tier's costs replace it).
	Costs Costs
	// Model prices energy.
	Model energy.Model
	// TotalWork is the application size in work units. With TwoLevel
	// set it must be a whole multiple of Plan.W.
	TotalWork float64
	// Nodes, when non-empty, replaces the aggregate fault process with
	// independent per-node Poisson processes.
	Nodes []Node
	// Renewal, when non-nil, replaces the aggregate fault process with
	// windowed arrival channels (e.g. Weibull or log-normal
	// inter-arrivals, correlated bursts, or trace replay), built in
	// place for every run from this shared, read-only description.
	// Mutually exclusive with Nodes and with non-zero
	// Costs.LambdaS/LambdaF.
	Renewal *Renewal
	// TwoLevel, when non-nil, replaces the single-level checkpoint
	// store with the memory+disk tier.
	TwoLevel *TwoLevelSpec
	// Partial, when non-nil, adds intermediate partial verifications.
	Partial *Partial
	// SkipVerification disables verification (blind checkpoints).
	SkipVerification bool
	// Detector verifies state; nil selects FNV-64a.
	Detector detect.Detector
	// Trace, when non-nil, records the schedule of a single Run or
	// RunOn (replication clears it).
	Trace *trace.Recorder
	// Obs carries the observability hooks. ReplicateScenario keeps
	// Obs.Counters (atomic, shareable across workers) but clears
	// Obs.TraceSink, which — like Trace — is single-run state.
	Obs Options
	// NewWorkload builds the state-carrying workload for each run.
	NewWorkload func() *Runner
}

// Validate checks the composition.
func (sc Scenario) Validate() error {
	if err := sc.Plan.Validate(); err != nil {
		return err
	}
	if err := sc.Costs.Validate(); err != nil {
		return err
	}
	if sc.TotalWork <= 0 {
		return fmt.Errorf("engine: TotalWork must be positive")
	}
	if len(sc.Nodes) > 0 {
		if sc.Costs.LambdaS != 0 || sc.Costs.LambdaF != 0 {
			return fmt.Errorf("engine: error rates belong on nodes, not Costs")
		}
		if err := ValidateNodes(sc.Nodes); err != nil {
			return err
		}
	}
	if sc.Renewal != nil {
		if len(sc.Nodes) > 0 {
			return fmt.Errorf("engine: Renewal and Nodes are mutually exclusive")
		}
		if sc.Costs.LambdaS != 0 || sc.Costs.LambdaF != 0 {
			return fmt.Errorf("engine: error rates belong to the Renewal channels, not Costs")
		}
		if err := sc.Renewal.Validate(); err != nil {
			return err
		}
	}
	if sc.TwoLevel != nil {
		if err := sc.TwoLevel.Validate(); err != nil {
			return err
		}
		n := sc.TotalWork / sc.Plan.W
		if n != float64(int(n)) {
			return fmt.Errorf("engine: TotalWork (%g) must be a whole multiple of W (%g) under two-level checkpointing", sc.TotalWork, sc.Plan.W)
		}
	}
	if sc.Partial != nil {
		if sc.SkipVerification {
			return fmt.Errorf("engine: Partial and SkipVerification are mutually exclusive")
		}
		if err := sc.Partial.Validate(); err != nil {
			return err
		}
	}
	if sc.NewWorkload == nil {
		return fmt.Errorf("engine: scenario needs a workload factory")
	}
	return nil
}

// Run executes the scenario once. All randomness derives from seed, so
// runs are reproducible: the run draws from the streams "scenario/…".
func (sc Scenario) Run(seed uint64) (Report, error) {
	if err := sc.Validate(); err != nil {
		return Report{}, err
	}
	return sc.runSingle(seed, runName{base: "scenario", index: -1})
}

// RunOn executes the scenario once on a caller-named stream, for
// callers that pin their own stream names: faults draw from rng, and
// partial-verification positions from rng.Child("partial-positions").
// Only the aggregate rates of Costs can draw from one stream, so
// per-node (Nodes) and renewal (Renewal) fault processes are rejected.
// It panics on a nil stream.
func (sc Scenario) RunOn(rng *rngx.Stream) (Report, error) {
	if err := sc.Validate(); err != nil {
		return Report{}, err
	}
	if len(sc.Nodes) > 0 || sc.Renewal != nil {
		return Report{}, fmt.Errorf("engine: RunOn takes aggregate fault rates only, not Nodes or Renewal")
	}
	if rng == nil {
		panic("engine: nil rng stream")
	}
	return sc.runSingle(rng.Seed(), runName{base: rng.Name(), index: -1, exec: rng})
}

// runSingle executes one run of a validated scenario on a one-run
// campaign: the pooled assembly replication uses, with the scenario's
// trace hooks kept.
func (sc Scenario) runSingle(seed uint64, name runName) (Report, error) {
	c, err := newScenarioCampaign(sc)
	if err != nil {
		return Report{}, err
	}
	s := getScratch(c)
	defer putScratch(s)
	return s.runReport(c, seed, name)
}

// patternSizes returns the scenario's pattern work sequence — the same
// values every run of the scenario computes, so a campaign computes
// them once and shares the (read-only) slice across all runs.
func (sc Scenario) patternSizes() []float64 {
	if sc.TwoLevel != nil {
		return WholePatterns(int(sc.TotalWork/sc.Plan.W), sc.Plan.W)
	}
	return PatternSizes(sc.TotalWork, sc.Plan.W)
}

// ReplicateScenario runs n independent executions of the scenario
// fanned out over the shared executor and aggregates makespan and
// energy. Run i draws from substreams prefixed "scenario/<i>", so the
// estimate is deterministic in (seed, n) and independent of worker
// count and scheduling.
func ReplicateScenario(sc Scenario, seed uint64, n, workers int) (Estimate, error) {
	return ReplicateScenarioCtx(context.Background(), sc, seed, n, workers)
}

// ReplicateScenarioCtx is ReplicateScenario with cancellation: once ctx
// is cancelled no further chunk starts, in-flight chunks stop at the
// next run boundary, and the context's error is returned.
func ReplicateScenarioCtx(ctx context.Context, sc Scenario, seed uint64, n, workers int) (Estimate, error) {
	if err := sc.Validate(); err != nil {
		return Estimate{}, err
	}
	return ReplicateScenarioValidatedCtx(ctx, sc, seed, n, workers)
}

// ReplicateScenarioValidatedCtx is ReplicateScenarioCtx minus the
// validation pass, for callers holding a scenario that already passed
// sc.Validate() — compiled specs validate at compile time, campaign
// shards at submit — so fan-out shards don't re-pay validation per
// call. Behavior on a scenario that would not validate is undefined.
func ReplicateScenarioValidatedCtx(ctx context.Context, sc Scenario, seed uint64, n, workers int) (Estimate, error) {
	sc.Trace, sc.Obs.TraceSink = nil, nil // single-run state: never share one recorder across goroutines
	c, err := newScenarioCampaign(sc)
	if err != nil {
		return Estimate{}, err
	}
	return chunkedFanOut(ctx, n, workers, sc.TotalWork, func(ctx context.Context, chunk, lo, hi int, acc *estimator) error {
		return runScenarioRange(ctx, c, seed, lo, hi, acc)
	})
}

// runScenarioRange executes replications [lo, hi) of a scenario
// campaign into acc. Run i draws from substreams prefixed
// "scenario/<i>" — the same prefix for in-process fan-out and isolated
// chunk execution, which is what makes the two bit-identical.
func runScenarioRange(ctx context.Context, c *scenarioCampaign, seed uint64, lo, hi int, acc *estimator) error {
	s := getScratch(c)
	defer putScratch(s)
	for i := lo; i < hi; i++ {
		rep, err := s.runOnce(c, seed, replication(i))
		if err != nil {
			return err
		}
		acc.add(PatternResult{
			Time:     rep.Makespan,
			Energy:   rep.Energy,
			Attempts: rep.Attempts,
		})
		// Scenario runs are full application executions — heavy
		// enough to poll cancellation at every run boundary.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ReplicateScenarioChunkValidatedCtx executes replications [lo, hi) of
// an n-replication scenario campaign and returns the chunk's partial
// estimate. Running the chunks of ChunkCount(n) in any order and
// merging them in index order with MergeChunkEstimates(sc.TotalWork, n,
// parts) reproduces ReplicateScenario's result exactly. It skips
// validation, with the same already-validated contract as
// ReplicateScenarioValidatedCtx — the shard path of a distributed
// campaign validates the spec once at submit, not once per shard.
func ReplicateScenarioChunkValidatedCtx(ctx context.Context, sc Scenario, seed uint64, lo, hi int) (ChunkEstimate, error) {
	if lo < 0 || hi < lo {
		return ChunkEstimate{}, fmt.Errorf("engine: invalid scenario chunk range [%d,%d)", lo, hi)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sc.Trace, sc.Obs.TraceSink = nil, nil
	c, err := newScenarioCampaign(sc)
	if err != nil {
		return ChunkEstimate{}, err
	}
	acc := estimator{w: sc.TotalWork}
	if err := runScenarioRange(ctx, c, seed, lo, hi, &acc); err != nil {
		return ChunkEstimate{}, err
	}
	return acc.state(), nil
}
