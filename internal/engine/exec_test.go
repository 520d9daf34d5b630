package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"respeed/internal/core"
	"respeed/internal/detect"
	"respeed/internal/rngx"
	"respeed/internal/trace"
	"respeed/internal/workload"
)

// Full-stack executions of the verified-checkpoint protocol on a real
// workload, driven through Scenario.RunOn with aggregate faults on one
// named stream: error-free timing, detection soundness, recovery,
// partial verification and the blind-checkpoint ablation.

func heatRunner() *Runner { return FromWorkload(workload.NewHeat(256, 0.25)) }

// execScenario is the base full-stack composition: ten W=50 patterns
// of a heat stencil with expensive checkpoints and recoveries.
func execScenario(lambdaS, lambdaF float64) Scenario {
	return Scenario{
		Plan:        Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:       Costs{C: 300, V: 15.4, R: 300, LambdaS: lambdaS, LambdaF: lambdaF},
		Model:       testModel(),
		TotalWork:   500,
		NewWorkload: heatRunner,
	}
}

// runExec runs sc on the named stream of seed, failing the test on error.
func runExec(t *testing.T, sc Scenario, seed uint64, name string) Report {
	t.Helper()
	rep, err := sc.RunOn(rngx.NewStream(seed, name))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestExecErrorFree(t *testing.T) {
	rep := runExec(t, execScenario(0, 0), 1, "exec")
	if rep.Patterns != 10 || rep.Attempts != 10 {
		t.Errorf("patterns/attempts = %d/%d, want 10/10", rep.Patterns, rep.Attempts)
	}
	if rep.SilentInjected != 0 || rep.FailStops != 0 {
		t.Errorf("errors in error-free run: %+v", rep)
	}
	if math.Abs(rep.FinalProgress-500) > 1e-9 {
		t.Errorf("progress = %g, want 500", rep.FinalProgress)
	}
	// Makespan: 10 patterns × ((50+15.4)/0.4 + 300).
	want := 10 * ((50+15.4)/0.4 + 300)
	if math.Abs(rep.Makespan-want) > 1e-6 {
		t.Errorf("makespan = %g, want %g", rep.Makespan, want)
	}
	// 10 pattern commits + 1 initial.
	if rep.CkptStats.Commits != 11 {
		t.Errorf("commits = %d, want 11", rep.CkptStats.Commits)
	}
}

func TestExecAllInjectedSDCsDetected(t *testing.T) {
	// The core soundness property of verified checkpoints: every injected
	// corruption is caught before it can be committed.
	rep := runExec(t, execScenario(2e-3, 0), 2, "exec-sdc") // ~1 error per 4 patterns at σ1=0.4
	if rep.SilentInjected == 0 {
		t.Fatal("no SDCs injected; raise λ or the seed is unlucky")
	}
	if rep.SilentDetected != rep.SilentInjected {
		t.Errorf("detected %d of %d injected SDCs", rep.SilentDetected, rep.SilentInjected)
	}
	if rep.Attempts <= rep.Patterns {
		t.Errorf("attempts %d should exceed patterns %d after errors", rep.Attempts, rep.Patterns)
	}
}

func TestExecFinalStateUnaffectedByErrors(t *testing.T) {
	// The paper's correctness premise, demonstrated end to end: an
	// execution battered by silent errors and rollbacks finishes with
	// exactly the same application state as an error-free execution.
	cleanRep := runExec(t, execScenario(0, 0), 3, "clean")
	dirtyRep := runExec(t, execScenario(3e-3, 0), 4, "dirty")
	if dirtyRep.SilentInjected == 0 {
		t.Fatal("want at least one injected error for a meaningful test")
	}
	if cleanRep.StateDigest != dirtyRep.StateDigest {
		t.Errorf("final states differ: clean %x vs dirty %x",
			cleanRep.StateDigest, dirtyRep.StateDigest)
	}
	if !(dirtyRep.Makespan > cleanRep.Makespan) {
		t.Error("errorful run should take longer")
	}
	if !(dirtyRep.Energy > cleanRep.Energy) {
		t.Error("errorful run should consume more energy")
	}
}

func TestExecFailStopRecovery(t *testing.T) {
	rep := runExec(t, execScenario(0, 5e-3), 5, "exec-fs") // ≈0.56 crash probability per attempt
	if rep.FailStops == 0 {
		t.Fatal("no fail-stop errors sampled")
	}
	if math.Abs(rep.FinalProgress-500) > 1e-9 {
		t.Errorf("progress = %g despite crashes, want 500", rep.FinalProgress)
	}
	if rep.CkptStats.Recoveries != rep.FailStops {
		t.Errorf("recoveries %d != fail-stops %d", rep.CkptStats.Recoveries, rep.FailStops)
	}
}

func TestExecWorksForAllKernels(t *testing.T) {
	for _, build := range []func() *Runner{
		func() *Runner { return FromWorkload(workload.NewHeat(128, 0.25)) },
		func() *Runner { return FromWorkload(workload.NewStream(9, 32)) },
		func() *Runner { return FromWorkload(workload.NewMatVec(64)) },
	} {
		sc := execScenario(2e-3, 5e-4)
		sc.NewWorkload = build
		name := build().Name()
		rep, err := sc.RunOn(rngx.NewStream(6, "exec-"+name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.SilentDetected != rep.SilentInjected {
			t.Errorf("%s: missed detections", name)
		}
		if math.Abs(rep.FinalProgress-sc.TotalWork) > 1e-9 {
			t.Errorf("%s: progress %g", name, rep.FinalProgress)
		}
	}
}

func TestExecTraceIsValid(t *testing.T) {
	sc := execScenario(2e-3, 5e-4)
	sc.Trace = trace.New(0)
	rep := runExec(t, sc, 7, "exec-trace")
	events := sc.Trace.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	if err := trace.Validate(events); err != nil {
		t.Error(err)
	}
	if got := sc.Trace.CountKind(trace.Checkpoint); got != rep.Patterns {
		t.Errorf("checkpoint events %d != patterns %d", got, rep.Patterns)
	}
	if got := sc.Trace.CountKind(trace.VerifyFail); got != rep.SilentDetected {
		t.Errorf("verify-fail events %d != detections %d", got, rep.SilentDetected)
	}
}

func TestExecShortFinalPattern(t *testing.T) {
	// TotalWork = 3.5 × W: the last pattern is a partial one.
	sc := execScenario(0, 0)
	sc.TotalWork = 175 // 3×50 + 25
	rep := runExec(t, sc, 8, "exec-short")
	if rep.Patterns != 4 {
		t.Errorf("patterns = %d, want 4", rep.Patterns)
	}
	if math.Abs(rep.FinalProgress-175) > 1e-9 {
		t.Errorf("progress = %g, want 175", rep.FinalProgress)
	}
}

func TestExecCRC32Detector(t *testing.T) {
	sc := execScenario(2e-3, 0)
	sc.Detector = detect.CRC32C{}
	rep := runExec(t, sc, 9, "exec-crc")
	if rep.SilentDetected != rep.SilentInjected {
		t.Errorf("crc32c missed detections: %d/%d", rep.SilentDetected, rep.SilentInjected)
	}
}

func TestExecRejectsBadConfig(t *testing.T) {
	good := execScenario(0, 0)
	bad := good
	bad.TotalWork = 0
	if _, err := bad.RunOn(rngx.NewStream(1, "x")); err == nil {
		t.Error("zero TotalWork should be rejected")
	}
	bad = good
	bad.NewWorkload = nil
	if _, err := bad.RunOn(rngx.NewStream(1, "x")); err == nil {
		t.Error("missing workload should be rejected")
	}
	bad = good
	bad.Plan.Sigma1 = 0
	if _, err := bad.RunOn(rngx.NewStream(1, "x")); err == nil {
		t.Error("zero σ1 should be rejected")
	}
	bad = good
	bad.Costs.LambdaS = 0
	bad.Nodes = UniformNodes(2, 1e-3, 0)
	if _, err := bad.RunOn(rngx.NewStream(1, "x")); err == nil {
		t.Error("per-node faults cannot draw from one stream and should be rejected")
	}
}

func TestExecDeterministicDigest(t *testing.T) {
	run := func() detect.Digest {
		return runExec(t, execScenario(2e-3, 1e-3), 10, "exec-det").StateDigest
	}
	if run() != run() {
		t.Error("same-seed executions produced different final states")
	}
}

func TestExecEnergyBreakdownConservation(t *testing.T) {
	rep := runExec(t, execScenario(2e-3, 1e-3), 14, "exec-breakdown")
	b := rep.EnergyBreakdown
	sum := b.Compute + b.Verify + b.Checkpoint + b.Recovery + b.Idle
	if math.Abs(sum-rep.Energy) > 1e-6*rep.Energy {
		t.Errorf("breakdown parts %g != total %g", sum, rep.Energy)
	}
	if b.Compute <= 0 || b.Checkpoint <= 0 {
		t.Errorf("missing activity energy: %+v", b)
	}
	if rep.FailStops > 0 && b.Recovery <= 0 {
		t.Error("fail-stops occurred but no recovery energy recorded")
	}
	if math.Abs(b.Elapsed-rep.Makespan) > 1e-6*rep.Makespan {
		t.Errorf("breakdown elapsed %g != makespan %g", b.Elapsed, rep.Makespan)
	}
}

func TestSkipVerificationCorruptsFinalState(t *testing.T) {
	// The ablation that motivates verified checkpoints: with verification
	// disabled, injected SDCs survive into the final state.
	base := execScenario(3e-3, 0)
	base.TotalWork = 1000

	clean := base
	clean.Costs.LambdaS = 0
	cleanRep := runExec(t, clean, 21, "skip-clean")

	blind := base
	blind.SkipVerification = true
	blindRep := runExec(t, blind, 21, "skip-blind")
	if blindRep.SilentInjected == 0 {
		t.Fatal("no SDC injected; test is vacuous")
	}
	if blindRep.SilentDetected != 0 {
		t.Errorf("blind mode should detect nothing, got %d", blindRep.SilentDetected)
	}
	if blindRep.StateDigest == cleanRep.StateDigest {
		t.Error("blind execution should end in a corrupted state")
	}

	// And with verification on (same error process shape), the state is
	// clean again.
	verifiedRep := runExec(t, base, 21, "skip-verified")
	if verifiedRep.StateDigest != cleanRep.StateDigest {
		t.Error("verified execution should end clean")
	}
}

func TestSkipVerificationIsFasterPerPattern(t *testing.T) {
	// Without errors, skipping verification must save exactly V/σ1 per
	// pattern.
	sc := execScenario(0, 0)
	run := func(skip bool) float64 {
		c := sc
		c.SkipVerification = skip
		return runExec(t, c, 5, "fast").Makespan
	}
	withV := run(false)
	withoutV := run(true)
	wantDelta := 10 * sc.Costs.V / sc.Plan.Sigma1 // 10 patterns
	if math.Abs((withV-withoutV)-wantDelta) > 1e-6 {
		t.Errorf("verification cost delta %g, want %g", withV-withoutV, wantDelta)
	}
}

func TestSkipVerificationStillHandlesFailStop(t *testing.T) {
	sc := execScenario(0, 5e-3)
	sc.SkipVerification = true
	sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewStream(3, 16)) }
	rep := runExec(t, sc, 9, "skip-fs")
	if rep.FailStops == 0 {
		t.Fatal("no fail-stops sampled")
	}
	if math.Abs(rep.FinalProgress-sc.TotalWork) > 1e-9 {
		t.Errorf("progress %g", rep.FinalProgress)
	}
}

func partialScenario(lambdaS float64) Scenario {
	sc := execScenario(lambdaS, 0)
	sc.Partial = &Partial{Segments: 4, Coverage: 0.7, Cost: 2}
	return sc
}

func TestPartialExecErrorFree(t *testing.T) {
	rep := runExec(t, partialScenario(0), 1, "pexec")
	if rep.Patterns != 10 {
		t.Errorf("patterns %d", rep.Patterns)
	}
	// Each pattern pays 3 partial checks.
	if rep.PartialChecks != 30 {
		t.Errorf("partial checks %d, want 30", rep.PartialChecks)
	}
	if rep.PartialDetections != 0 {
		t.Errorf("phantom detections %d", rep.PartialDetections)
	}
	// Error-free makespan: 10 × (compute + 3 partial + guaranteed + C).
	want := 10 * (50/0.4 + 3*2/0.4 + 15.4/0.4 + 300)
	if math.Abs(rep.Makespan-want) > 1e-6 {
		t.Errorf("makespan %g, want %g", rep.Makespan, want)
	}
}

func TestPartialExecDetectsAndStaysClean(t *testing.T) {
	sc := partialScenario(3e-3)
	rep := runExec(t, sc, 2, "pexec-err")
	if rep.SilentInjected == 0 {
		t.Fatal("no SDCs injected")
	}
	// The guaranteed check backstops the partial ones: every injected SDC
	// must eventually be detected, and the final state must equal the
	// clean run's.
	if rep.SilentDetected != rep.SilentInjected {
		t.Errorf("detected %d of %d", rep.SilentDetected, rep.SilentInjected)
	}
	cleanRep := runExec(t, partialScenario(0), 3, "pexec-clean")
	if rep.StateDigest != cleanRep.StateDigest {
		t.Error("partial-verified execution ended corrupted")
	}
	if rep.FinalProgress != sc.TotalWork {
		t.Errorf("progress %g", rep.FinalProgress)
	}
}

func TestPartialExecEarlyDetectionSavesTime(t *testing.T) {
	// At a high error rate, intermediate checks catch corruptions early
	// and the mean pattern time beats the m=1 baseline (whose only
	// detection point is the end of the pattern). Compare long runs.
	const lambda = 4e-3
	base := execScenario(lambda, 0)
	base.TotalWork = base.Plan.W * 3000 // enough patterns to beat sampling noise
	base.NewWorkload = func() *Runner { return FromWorkload(workload.NewStream(1, 16)) }
	withPartial := base
	withPartial.Partial = &Partial{Segments: 4, Coverage: 0.9, Cost: 0.1}

	m1 := runExec(t, base, 11, "p-base").Makespan
	m4 := runExec(t, withPartial, 11, "p-seg").Makespan
	if !(m4 < m1) {
		t.Errorf("partial checks did not pay off: %g vs %g", m4, m1)
	}
}

// TestPartialExecMatchesAnalyticModel is the cross-validation: the mean
// pattern time of the full-stack partial execution must match
// core.ExpectedTimePartial with Recall = Coverage.
func TestPartialExecMatchesAnalyticModel(t *testing.T) {
	const lambda = 2e-3
	sc := partialScenario(lambda)
	const patterns = 3000
	sc.TotalWork = sc.Plan.W * patterns
	sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewStream(5, 4)) }

	rep := runExec(t, sc, 21, "pexec-mc")
	meanPattern := rep.Makespan / patterns

	p := core.Params{Lambda: lambda, C: sc.Costs.C, V: sc.Costs.V, R: sc.Costs.R,
		Kappa: sc.Model.Kappa, Pidle: sc.Model.Pidle, Pio: sc.Model.Pio}
	pp := core.PartialPattern{Segments: 4, Recall: 0.7, PartialCost: 2}
	want := p.ExpectedTimePartial(pp, sc.Plan.W, sc.Plan.Sigma1, sc.Plan.Sigma2)
	if rel := math.Abs(meanPattern-want) / want; rel > 0.03 {
		t.Errorf("exec mean pattern time %g vs analytic %g (rel %g)", meanPattern, want, rel)
	}
}

func TestPartialExecTraceValid(t *testing.T) {
	sc := partialScenario(3e-3)
	sc.Trace = trace.New(0)
	rep := runExec(t, sc, 4, "pexec-trace")
	if err := trace.Validate(sc.Trace.Events()); err != nil {
		t.Error(err)
	}
	if got := sc.Trace.CountKind(trace.Checkpoint); got != rep.Patterns {
		t.Errorf("checkpoints %d != patterns %d", got, rep.Patterns)
	}
}

func TestPartialExecConfigGuards(t *testing.T) {
	for name, mutate := range map[string]func(*Scenario){
		"1 segment (use Partial=nil)": func(sc *Scenario) { sc.Partial.Segments = 1 },
		"zero coverage":               func(sc *Scenario) { sc.Partial.Coverage = 0 },
		"negative cost":               func(sc *Scenario) { sc.Partial.Cost = -1 },
		"Partial+SkipVerification":    func(sc *Scenario) { sc.SkipVerification = true },
	} {
		bad := partialScenario(0)
		mutate(&bad)
		if _, err := bad.RunOn(rngx.NewStream(1, "x")); err == nil {
			t.Errorf("%s should be rejected", name)
		}
	}
}

// divergentRunner wraps a heat kernel whose clones run different
// physics (another diffusion coefficient): a clone that disagrees with
// its original, so the clean reference it yields is not this run's.
func divergentRunner() *Runner {
	r := FromWorkload(workload.NewHeat(64, 0.2))
	r.clone = func() *Runner { return FromWorkload(workload.NewHeat(64, 0.25)) }
	return r
}

// TestOffReferenceRunFailsLoudly builds error-free Apps whose reference
// (the guaranteed path's trajectory, the partial path's replica) comes
// from a disagreeing clone. No retry can fix that, so each must fail
// within the guard instead of retrying forever: the guaranteed path at
// NewApp, whose trajectory check steps the App's own workload beside
// the clone, and the partial path in its run, where every verification
// fails with no error injected.
func TestOffReferenceRunFailsLoudly(t *testing.T) {
	for name, partial := range map[string]*Partial{
		"guaranteed": nil,
		"partial":    {Segments: 4, Coverage: 1, Cost: 0.4},
	} {
		t.Run(name, func(t *testing.T) {
			sc := execScenario(0, 0)
			sc.Partial = partial
			var sampled *detect.SampledVerifier
			if partial != nil {
				sampled = detect.NewSampledVerifier(nil, rngx.NewStream(1, "positions"), partial.Coverage)
			}
			type outcome struct {
				built bool // NewApp succeeded
				err   error
			}
			done := make(chan outcome, 1)
			go func() {
				x, err := NewApp(AppConfig{
					Plan:     sc.Plan,
					Verify:   sc.Costs.V,
					Sizes:    sc.patternSizes(),
					Faults:   NewAggregateFaults(0, 0, rngx.NewStream(1, "off-reference")),
					Tier:     NewSingleLevel(sc.Costs.C, sc.Costs.R),
					Recorder: NewMeterRecorder(sc.Model),
					Partial:  partial,
					Sampled:  sampled,
				}, divergentRunner())
				if err != nil {
					done <- outcome{false, err}
					return
				}
				_, err = x.Run()
				done <- outcome{true, err}
			}()
			select {
			case o := <-done:
				switch {
				case o.err == nil:
					t.Fatal("a run that left its reference completed")
				case partial == nil && (o.built || !strings.Contains(o.err.Error(), `workload "heat-64" left its clean trajectory at pattern 0`)):
					t.Fatalf("the divergent clone passed the trajectory check (NewApp succeeded: %v): %v", o.built, o.err)
				case partial != nil && !o.built:
					t.Fatalf("NewApp refused a partial App, which builds no trajectory: %v", o.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a run that left its reference is still retrying")
			}
		})
	}
}
