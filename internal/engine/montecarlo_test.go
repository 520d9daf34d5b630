package engine

import (
	"context"
	"math"
	"runtime"
	"testing"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/platform"
	"respeed/internal/rngx"
	"respeed/internal/trace"
)

// Monte-Carlo validation of the abstract pattern simulator: sampled
// pattern times and energies against the paper's closed forms, both for
// sequential replication on one stream and for the chunked fan-out.

// aggregatePattern builds the abstract pattern simulator the paper
// validates: the aggregate fault process on rng and plain summed
// energy. rec may be nil.
func aggregatePattern(plan Plan, costs Costs, model energy.Model, rng *rngx.Stream, rec *trace.Recorder) (*PatternEngine, error) {
	return NewPatternEngine(PatternConfig{
		Plan:     plan,
		Costs:    costs,
		Faults:   NewAggregateFaults(costs.LambdaS, costs.LambdaF, rng),
		Recorder: NewSumRecorder(model),
		Trace:    rec,
	})
}

// replicateSequential runs n patterns one after another on rng.
func replicateSequential(plan Plan, costs Costs, model energy.Model, rng *rngx.Stream, n int) (Estimate, error) {
	p, err := aggregatePattern(plan, costs, model, rng, nil)
	if err != nil {
		return Estimate{}, err
	}
	return ReplicatePattern(p, plan.W, n)
}

// replicateParallel is the chunked fan-out without cancellation.
func replicateParallel(plan Plan, costs Costs, model energy.Model, seed uint64, n, workers int) (Estimate, error) {
	return ReplicatePatternParallelCtx(context.Background(), plan, costs, model, seed, n, workers)
}

// heraSetup returns Hera/XScale parameters in the engine's vocabulary,
// with the error rate scaled up by errBoost so effects are visible with
// moderate replication counts.
func heraSetup(errBoost float64) (Costs, energy.Model, core.Params) {
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	p.Lambda *= errBoost
	costs := Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda}
	model := energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio}
	return costs, model, p
}

func TestNoErrorsDeterministic(t *testing.T) {
	costs, model, _ := heraSetup(1)
	costs.LambdaS = 0
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	s, err := aggregatePattern(plan, costs, model, rngx.NewStream(1, "noerr"), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := s.RunPattern()
	wantTime := (plan.W+costs.V)/plan.Sigma1 + costs.C
	if math.Abs(r.Time-wantTime) > 1e-9 {
		t.Errorf("error-free time %g, want %g", r.Time, wantTime)
	}
	wantEnergy := (plan.W+costs.V)/plan.Sigma1*model.ComputePower(0.4) +
		costs.C*model.IOPower()
	if math.Abs(r.Energy-wantEnergy) > 1e-6 {
		t.Errorf("error-free energy %g, want %g", r.Energy, wantEnergy)
	}
	if r.Attempts != 1 || r.SilentErrors != 0 {
		t.Errorf("unexpected errors: %+v", r)
	}
}

// TestMonteCarloMatchesProposition2And3 is the central validation: the
// simulated mean pattern time and energy must match the exact analytical
// expectations within 4 standard errors.
func TestMonteCarloMatchesProposition2And3(t *testing.T) {
	costs, model, p := heraSetup(100) // λ = 3.38e-4: ~1 error per 5 patterns
	const n = 40000
	for _, plan := range []Plan{
		{W: 2764, Sigma1: 0.4, Sigma2: 0.4},
		{W: 2764, Sigma1: 0.4, Sigma2: 0.8},
		{W: 4251, Sigma1: 0.6, Sigma2: 0.8},
		{W: 1000, Sigma1: 1, Sigma2: 0.4},
	} {
		est, err := replicateSequential(plan, costs, model, rngx.NewStream(99, "mc"), n)
		if err != nil {
			t.Fatal(err)
		}
		wantT := p.ExpectedTime(plan.W, plan.Sigma1, plan.Sigma2)
		wantE := p.ExpectedEnergy(plan.W, plan.Sigma1, plan.Sigma2)
		if d := math.Abs(est.Time.Mean - wantT); d > 4*est.Time.StdErr {
			t.Errorf("plan %+v: sim T=%g analytic %g (Δ=%g, 4se=%g)",
				plan, est.Time.Mean, wantT, d, 4*est.Time.StdErr)
		}
		if d := math.Abs(est.Energy.Mean - wantE); d > 4*est.Energy.StdErr {
			t.Errorf("plan %+v: sim E=%g analytic %g (Δ=%g, 4se=%g)",
				plan, est.Energy.Mean, wantE, d, 4*est.Energy.StdErr)
		}
	}
}

// TestMonteCarloMatchesCombinedRecursion validates the Section 5 exact
// expectations (solved from the Equation (8) recursion) against sampled
// executions with both error sources — and thereby adjudicates the
// Proposition 4/5 transcription difference in favour of the recursion.
func TestMonteCarloMatchesCombinedRecursion(t *testing.T) {
	costs, model, p := heraSetup(100)
	cp := p.Split(0.4) // 40% fail-stop, 60% silent
	costs.LambdaS = cp.LambdaS
	costs.LambdaF = cp.LambdaF
	const n = 40000
	for _, plan := range []Plan{
		{W: 2764, Sigma1: 0.4, Sigma2: 0.4},
		{W: 2764, Sigma1: 0.4, Sigma2: 0.8},
		{W: 5000, Sigma1: 0.8, Sigma2: 0.6},
	} {
		est, err := replicateSequential(plan, costs, model, rngx.NewStream(7, "mc-combined"), n)
		if err != nil {
			t.Fatal(err)
		}
		wantT := cp.ExpectedTimeCombined(plan.W, plan.Sigma1, plan.Sigma2)
		wantE := cp.ExpectedEnergyCombined(plan.W, plan.Sigma1, plan.Sigma2)
		if d := math.Abs(est.Time.Mean - wantT); d > 4*est.Time.StdErr {
			t.Errorf("plan %+v: sim T=%g recursion %g (Δ=%g, 4se=%g)",
				plan, est.Time.Mean, wantT, d, 4*est.Time.StdErr)
		}
		if d := math.Abs(est.Energy.Mean - wantE); d > 4*est.Energy.StdErr {
			t.Errorf("plan %+v: sim E=%g recursion %g (Δ=%g, 4se=%g)",
				plan, est.Energy.Mean, wantE, d, 4*est.Energy.StdErr)
		}
		// The printed Proposition 4 (recursion + one extra verification)
		// must be measurably ABOVE the simulated mean for the largest plan,
		// confirming the recursion is the right reading. Only assert when
		// the discrepancy exceeds the noise floor.
		printed := cp.ExpectedTimeCombinedClosedForm(plan.W, plan.Sigma1, plan.Sigma2)
		if printed-wantT > 6*est.Time.StdErr {
			if math.Abs(est.Time.Mean-printed) < math.Abs(est.Time.Mean-wantT) {
				t.Errorf("plan %+v: simulation sides with the printed form (%g) over the recursion (%g); mean=%g",
					plan, printed, wantT, est.Time.Mean)
			}
		}
	}
}

func TestFailStopOnlyMatchesExact(t *testing.T) {
	// Pure fail-stop, no verification (V=0): the sampled mean must match
	// core.FailStopParams' exact renewal expectation.
	costs := Costs{C: 300, R: 300, LambdaF: 3e-4}
	fp := core.FailStopParams{Lambda: 3e-4, C: 300, R: 300}
	const n = 40000
	for _, plan := range []Plan{
		{W: 3000, Sigma1: 0.5, Sigma2: 1.0}, // the Theorem 2 regime: σ2 = 2σ1
		{W: 3000, Sigma1: 0.8, Sigma2: 0.8},
	} {
		est, err := replicateSequential(plan, costs, testModel(), rngx.NewStream(3, "mc-failstop"), n)
		if err != nil {
			t.Fatal(err)
		}
		want := fp.ExactTimeFailStop(plan.W, plan.Sigma1, plan.Sigma2)
		if d := math.Abs(est.Time.Mean - want); d > 4*est.Time.StdErr {
			t.Errorf("plan %+v: sim T=%g exact %g (Δ=%g, 4se=%g)",
				plan, est.Time.Mean, want, d, 4*est.Time.StdErr)
		}
	}
}

func TestReplicateDeterministic(t *testing.T) {
	costs, model, _ := heraSetup(100)
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	a, err := replicateSequential(plan, costs, model, rngx.NewStream(5, "det"), 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replicateSequential(plan, costs, model, rngx.NewStream(5, "det"), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time.Mean != b.Time.Mean || a.Energy.Mean != b.Energy.Mean {
		t.Error("same seed produced different estimates")
	}
	c, err := replicateSequential(plan, costs, model, rngx.NewStream(6, "det"), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time.Mean == c.Time.Mean {
		t.Error("different seeds produced identical estimates (suspicious)")
	}
}

func TestReExecutionUsesSecondSpeed(t *testing.T) {
	// With a huge error rate and σ2 ≫ σ1, mean attempts must exceed 1 and
	// the trace must show σ2 on re-executions.
	costs, model, _ := heraSetup(1)
	costs.LambdaS = 1e-3
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 1.0}
	rec := trace.New(0)
	s, err := aggregatePattern(plan, costs, model, rngx.NewStream(11, "reexec"), rec)
	if err != nil {
		t.Fatal(err)
	}
	sawRetry := false
	for i := 0; i < 50 && !sawRetry; i++ {
		if s.RunPattern().Attempts > 1 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no re-execution sampled at λ=1e-3 over 50 patterns")
	}
	for _, e := range rec.Events() {
		if e.Kind == trace.ComputeStart && e.Attempt > 0 && e.Speed != 1.0 {
			t.Errorf("re-execution at σ=%g, want σ2=1.0", e.Speed)
		}
		if e.Kind == trace.ComputeStart && e.Attempt == 0 && e.Speed != 0.4 {
			t.Errorf("first execution at σ=%g, want σ1=0.4", e.Speed)
		}
	}
	if err := trace.Validate(rec.Events()); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

func TestPatternSimRejectsBadInputs(t *testing.T) {
	costs, model, _ := heraSetup(1)
	if _, err := aggregatePattern(Plan{W: 0, Sigma1: 1, Sigma2: 1}, costs, model, rngx.NewStream(1, "x"), nil); err == nil {
		t.Error("zero W should be rejected")
	}
	bad := costs
	bad.C = -1
	if _, err := aggregatePattern(Plan{W: 1, Sigma1: 1, Sigma2: 1}, bad, model, rngx.NewStream(1, "x"), nil); err == nil {
		t.Error("negative C should be rejected")
	}
	if _, err := replicateSequential(Plan{W: 1, Sigma1: 1, Sigma2: 1}, costs, model, rngx.NewStream(1, "x"), 0); err == nil {
		t.Error("zero replication count should be rejected")
	}
}

func TestMeanAttemptsMatchesTheory(t *testing.T) {
	// With one speed, attempts follow a geometric distribution with
	// success probability e^{−λW/σ}, so E[attempts] = e^{λW/σ}.
	costs, model, _ := heraSetup(1)
	costs.LambdaS = 2e-4
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.4}
	est, err := replicateSequential(plan, costs, model, rngx.NewStream(13, "attempts"), 60000)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(costs.LambdaS * plan.W / plan.Sigma1)
	if math.Abs(est.MeanAttempts-want) > 0.03*want {
		t.Errorf("mean attempts %g, want ≈ %g", est.MeanAttempts, want)
	}
}

func TestReplicateParallelMatchesAnalytic(t *testing.T) {
	costs, model, p := heraSetup(100)
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	est, err := replicateParallel(plan, costs, model, 42, 40000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := p.ExpectedTime(plan.W, plan.Sigma1, plan.Sigma2)
	if d := math.Abs(est.Time.Mean - want); d > 4*est.Time.StdErr {
		t.Errorf("parallel mean %g vs analytic %g (Δ=%g, 4se=%g)",
			est.Time.Mean, want, d, 4*est.Time.StdErr)
	}
	if est.Patterns != 40000 {
		t.Errorf("patterns %d", est.Patterns)
	}
}

func TestReplicateParallelDeterministicAcrossWorkers(t *testing.T) {
	costs, model, _ := heraSetup(100)
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	run := func(workers int) Estimate {
		est, err := replicateParallel(plan, costs, model, 7, 5000, workers)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	one := run(1)
	many := run(16)
	if one.Time.Mean != many.Time.Mean || one.Energy.Mean != many.Energy.Mean {
		t.Errorf("worker count changed the estimate: %v vs %v", one.Time.Mean, many.Time.Mean)
	}
	if one.MeanAttempts != many.MeanAttempts {
		t.Errorf("attempts differ: %g vs %g", one.MeanAttempts, many.MeanAttempts)
	}
}

func TestReplicateParallelSeedSensitivity(t *testing.T) {
	costs, model, _ := heraSetup(100)
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	a, err := replicateParallel(plan, costs, model, 1, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replicateParallel(plan, costs, model, 2, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time.Mean == b.Time.Mean {
		t.Error("different seeds gave identical estimates")
	}
}

func TestReplicateWorkersClamp(t *testing.T) {
	cases := []struct{ workers, chunks, want int }{
		{1000, 5, 5},                          // many workers, few chunks: clamp to chunks
		{4, 64, 4},                            // fewer workers than chunks: untouched
		{64, 64, 64},                          // exact fit
		{1000, 1, 1},                          // n=1 degenerates to a single worker
		{0, 3, min(3, runtime.GOMAXPROCS(0))}, // default is GOMAXPROCS, still clamped
	}
	for _, c := range cases {
		if got := ReplicateWorkers(c.workers, c.chunks); got != c.want {
			t.Errorf("ReplicateWorkers(%d, %d) = %d, want %d", c.workers, c.chunks, got, c.want)
		}
	}
}

func TestReplicateParallelManyWorkersSmallN(t *testing.T) {
	// Regression: n < replicateChunks with a huge worker request must not
	// spawn idle goroutines, and the estimate must stay identical to a
	// single-worker run (determinism is independent of the pool size).
	costs, model, _ := heraSetup(1)
	plan := Plan{W: 100, Sigma1: 1, Sigma2: 1}
	const n = 7 // < replicateChunks
	one, err := replicateParallel(plan, costs, model, 13, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := replicateParallel(plan, costs, model, 13, n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if one != many {
		t.Errorf("worker count changed the estimate:\n  1 worker:    %+v\n  4096 workers: %+v", one, many)
	}
	if many.Patterns != n || many.Time.N != n {
		t.Errorf("bookkeeping: %+v", many)
	}
}

func TestReplicateParallelSmallN(t *testing.T) {
	costs, model, _ := heraSetup(1)
	plan := Plan{W: 100, Sigma1: 1, Sigma2: 1}
	est, err := replicateParallel(plan, costs, model, 3, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	if est.Patterns != 5 || est.Time.N != 5 {
		t.Errorf("small-n bookkeeping: %+v", est)
	}
	if _, err := replicateParallel(plan, costs, model, 3, 0, 8); err == nil {
		t.Error("n=0 should be rejected")
	}
}

func TestReplicateParallelAgreesWithSequential(t *testing.T) {
	// Different substreams, same distribution: means must agree within
	// combined confidence intervals.
	costs, model, _ := heraSetup(100)
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.4}
	seq, err := replicateSequential(plan, costs, model, rngx.NewStream(11, "seq"), 30000)
	if err != nil {
		t.Fatal(err)
	}
	par, err := replicateParallel(plan, costs, model, 11, 30000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(seq.Time.Mean - par.Time.Mean); d > 4*(seq.Time.StdErr+par.Time.StdErr) {
		t.Errorf("sequential %g vs parallel %g differ beyond noise", seq.Time.Mean, par.Time.Mean)
	}
}
