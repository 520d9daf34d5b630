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
// (aggregate rates or explicit per-node processes), a checkpoint tier
// (single-level or memory+disk), and a verification discipline
// (guaranteed, partial+guaranteed, or none) runs through the same
// full-stack executor, e.g.:
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
	// Faults, when non-nil, replaces both built-in fault constructions
	// with a custom process factory (e.g. renewal channels over Weibull
	// or log-normal inter-arrivals, or trace replay). Mutually exclusive
	// with Nodes and with non-zero Costs.LambdaS/LambdaF. The factory is
	// invoked once per run with the run's seed material and must return
	// a process deterministic in (seed, prefix).
	Faults FaultFactory
	// TwoLevel, when non-nil, replaces the single-level checkpoint
	// store with the memory+disk tier.
	TwoLevel *TwoLevelSpec
	// Partial, when non-nil, adds intermediate partial verifications.
	Partial *Partial
	// SkipVerification disables verification (blind checkpoints).
	SkipVerification bool
	// Detector verifies state; nil selects FNV-64a.
	Detector detect.Detector
	// Trace, when non-nil, records the schedule of a single Run (not
	// used by ReplicateScenario).
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
	if sc.Faults != nil {
		if len(sc.Nodes) > 0 {
			return fmt.Errorf("engine: Faults factory and Nodes are mutually exclusive")
		}
		if sc.Costs.LambdaS != 0 || sc.Costs.LambdaF != 0 {
			return fmt.Errorf("engine: error rates belong to the Faults factory, not Costs")
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

// FaultFactory builds a custom fault process for one run. All
// randomness must derive from (seed, prefix) so replications stay
// deterministic and worker-independent.
type FaultFactory func(seed uint64, prefix string) (FaultProcess, error)

// Run executes the scenario once. All randomness derives from seed, so
// runs are reproducible.
func (sc Scenario) Run(seed uint64) (Report, error) {
	if err := sc.Validate(); err != nil {
		return Report{}, err
	}
	return sc.run(seed, "scenario")
}

// RunOn executes the scenario once on a caller-named stream, for
// callers that pin their own stream names: faults draw from rng, and
// partial-verification positions from rng.Child("partial-positions").
// Only the aggregate rates of Costs can draw from one stream, so
// per-node (Nodes) and factory (Faults) fault processes are rejected.
func (sc Scenario) RunOn(rng *rngx.Stream) (Report, error) {
	if err := sc.Validate(); err != nil {
		return Report{}, err
	}
	if len(sc.Nodes) > 0 || sc.Faults != nil {
		return Report{}, fmt.Errorf("engine: RunOn takes aggregate fault rates only, not Nodes or a Faults factory")
	}
	app, err := sc.appWith(NewAggregateFaults(sc.Costs.LambdaS, sc.Costs.LambdaF, rng), rng.Child("partial-positions"), nil)
	if err != nil {
		return Report{}, err
	}
	return app.Run()
}

// run builds the policy set under the given stream-name prefix and
// executes. Distinct prefixes give replications independent substreams
// while staying deterministic in (seed, prefix).
func (sc Scenario) run(seed uint64, prefix string) (Report, error) {
	return sc.runSized(seed, prefix, nil)
}

// patternSizes returns the scenario's pattern work sequence — the same
// values every run of the scenario computes, so replication precomputes
// them once and shares the (read-only) slice across all runs.
func (sc Scenario) patternSizes() []float64 {
	if sc.TwoLevel != nil {
		return WholePatterns(int(sc.TotalWork/sc.Plan.W), sc.Plan.W)
	}
	return PatternSizes(sc.TotalWork, sc.Plan.W)
}

// runSized is run with an optional precomputed pattern-size sequence
// (nil recomputes it). App never mutates the slice, so concurrent runs
// may share one.
func (sc Scenario) runSized(seed uint64, prefix string, sizes []float64) (Report, error) {
	app, err := sc.appSized(seed, prefix, sizes)
	if err != nil {
		return Report{}, err
	}
	return app.Run()
}

// appSized builds the App that runSized executes.
func (sc Scenario) appSized(seed uint64, prefix string, sizes []float64) (*App, error) {
	var fp FaultProcess
	var sampledRNG interface{ Intn(int) int }
	if sc.Faults != nil {
		p, err := sc.Faults(seed, prefix)
		if err != nil {
			return nil, err
		}
		fp = p
		sampledRNG = rngx.NewStream(seed, prefix+"/partial-positions")
	} else if len(sc.Nodes) > 0 {
		pn, err := NewPerNodeFaults(sc.Nodes, seed, prefix)
		if err != nil {
			return nil, err
		}
		fp = pn
		sampledRNG = rngx.NewStream(seed, prefix+"/partial-positions")
	} else {
		stream := rngx.NewStream(seed, prefix+"/exec")
		fp = NewAggregateFaults(sc.Costs.LambdaS, sc.Costs.LambdaF, stream)
		// Child derivation does not consume stream state, so the fault
		// process is unchanged by enabling partial checks.
		sampledRNG = stream.Child("partial-positions")
	}
	return sc.appWith(fp, sampledRNG, sizes)
}

// appWith assembles the App around a fault process and a
// partial-position source (nil sizes recomputes the pattern sequence).
func (sc Scenario) appWith(fp FaultProcess, sampledRNG interface{ Intn(int) int }, sizes []float64) (*App, error) {
	var tier Tier
	if sizes == nil {
		sizes = sc.patternSizes()
	}
	if sc.TwoLevel != nil {
		tier = NewTwoLevel(*sc.TwoLevel, sc.Costs.R, int(sc.TotalWork/sc.Plan.W))
	} else {
		tier = NewSingleLevel(sc.Costs.C, sc.Costs.R)
	}

	var sampled *detect.SampledVerifier
	if sc.Partial != nil {
		sampled = detect.NewSampledVerifier(sc.Detector, sampledRNG, sc.Partial.Coverage)
	}

	return NewApp(AppConfig{
		Plan:             sc.Plan,
		Verify:           sc.Costs.V,
		Sizes:            sizes,
		Faults:           fp,
		Tier:             tier,
		Recorder:         NewMeterRecorder(sc.Model),
		Detector:         sc.Detector,
		Trace:            sc.Trace,
		Obs:              sc.Obs,
		SkipVerification: sc.SkipVerification,
		Partial:          sc.Partial,
		Sampled:          sampled,
	}, sc.NewWorkload())
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
	run := sc // traces are per-run state; never share one recorder across goroutines
	run.Trace = nil
	run.Obs.TraceSink = nil
	c, err := newScenarioCampaign(run)
	if err != nil {
		return Estimate{}, err
	}
	defer c.release()
	return chunkedFanOut(ctx, n, workers, sc.TotalWork, func(ctx context.Context, chunk, lo, hi int, acc *estimator) error {
		return runScenarioRange(ctx, c, seed, lo, hi, acc)
	})
}

// runScenarioRange executes replications [lo, hi) of a scenario
// campaign into acc. Run i draws from substreams prefixed
// "scenario/<i>" — the same prefix for in-process fan-out and isolated
// chunk execution, which is what makes the two bit-identical.
func runScenarioRange(ctx context.Context, c *scenarioCampaign, seed uint64, lo, hi int, acc *estimator) error {
	s := scenarioScratchPool.Get().(*scenarioScratch)
	defer scenarioScratchPool.Put(s)
	s.prepare(c)
	for i := lo; i < hi; i++ {
		rep, err := s.runOnce(c, seed, i)
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
	run := sc
	run.Trace = nil
	run.Obs.TraceSink = nil
	c, err := newScenarioCampaign(run)
	if err != nil {
		return ChunkEstimate{}, err
	}
	defer c.release()
	acc := estimator{w: sc.TotalWork}
	if err := runScenarioRange(ctx, c, seed, lo, hi, &acc); err != nil {
		return ChunkEstimate{}, err
	}
	return acc.state(), nil
}
