package schedule

import (
	"math"
	"strings"
	"testing"

	"respeed/internal/core"
	"respeed/internal/engine"
	"respeed/internal/platform"
	"respeed/internal/rngx"
	"respeed/internal/workload"
)

func heraCfg(t *testing.T) platform.Config {
	t.Helper()
	cfg, ok := platform.ByName("Hera/XScale")
	if !ok {
		t.Fatal("catalog miss")
	}
	return cfg
}

func TestPlanBasics(t *testing.T) {
	cfg := heraCfg(t)
	const total = 1e6
	plan, err := Plan(cfg, 3, total)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Sigma1 != 0.4 || plan.Best.Sigma2 != 0.4 {
		t.Errorf("plan uses pair (%g,%g)", plan.Best.Sigma1, plan.Best.Sigma2)
	}
	wantFull := int(total / plan.Best.W)
	if plan.FullPatterns != wantFull {
		t.Errorf("full patterns %d, want %d", plan.FullPatterns, wantFull)
	}
	covered := float64(plan.FullPatterns)*plan.Best.W + plan.LastW
	if math.Abs(covered-total) > 1e-6 {
		t.Errorf("plan covers %g of %g work units", covered, total)
	}
	if plan.Patterns() != wantFull+1 {
		t.Errorf("Patterns() = %d", plan.Patterns())
	}
	if !strings.Contains(plan.String(), "Hera/XScale") {
		t.Errorf("String() = %q", plan.String())
	}
}

func TestPlanExactDivision(t *testing.T) {
	cfg := heraCfg(t)
	probe, err := Plan(cfg, 3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	total := probe.Best.W * 10
	plan, err := Plan(cfg, 3, total)
	if err != nil {
		t.Fatal(err)
	}
	if plan.LastW != 0 || plan.FullPatterns != 10 || plan.Patterns() != 10 {
		t.Errorf("exact division mishandled: %+v", plan)
	}
}

func TestPlanExpectationsConsistent(t *testing.T) {
	// ExpectedMakespan must equal Σ per-pattern exact expectations, and be
	// close to (T/W)·Wbase (the Section 2.3 approximation).
	cfg := heraCfg(t)
	p := core.FromConfig(cfg)
	plan, err := Plan(cfg, 3, 5e5)
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Best
	want := float64(plan.FullPatterns) * p.ExpectedTime(b.W, b.Sigma1, b.Sigma2)
	if plan.LastW > 0 {
		want += p.ExpectedTime(plan.LastW, b.Sigma1, b.Sigma2)
	}
	if math.Abs(plan.ExpectedMakespan-want) > 1e-6*want {
		t.Errorf("makespan %g, want %g", plan.ExpectedMakespan, want)
	}
	approx := p.TimeOverheadExact(b.W, b.Sigma1, b.Sigma2) * plan.TotalWork
	if math.Abs(plan.ExpectedMakespan-approx) > 0.01*approx {
		t.Errorf("per-unit approximation off: %g vs %g", plan.ExpectedMakespan, approx)
	}
}

func TestPlanMeetsBound(t *testing.T) {
	cfg := heraCfg(t)
	plan, err := Plan(cfg, 3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// First-order optimality plus exact evaluation: allow 1% slack.
	if !plan.MeetsBound(0.01) {
		t.Errorf("plan violates its bound: makespan %g vs ρ·W %g",
			plan.ExpectedMakespan, plan.Rho*plan.TotalWork)
	}
}

func TestPlanOverheadPositive(t *testing.T) {
	cfg := heraCfg(t)
	plan, err := Plan(cfg, 3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !(plan.Overhead() > 0) {
		t.Errorf("overhead = %g, want > 0 under errors", plan.Overhead())
	}
	if plan.Overhead() > 0.2 {
		t.Errorf("overhead %g implausibly large for Hera's λ", plan.Overhead())
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	cfg := heraCfg(t)
	if _, err := Plan(cfg, 3, 0); err == nil {
		t.Error("zero work should be rejected")
	}
	if _, err := Plan(cfg, 0.5, 1e6); err == nil {
		t.Error("infeasible bound should be rejected")
	}
}

func TestExecConfigRoundTrip(t *testing.T) {
	// The plan's ExecConfig must drive the full-stack simulator to
	// completion with matching pattern count.
	cfg := heraCfg(t)
	plan, err := Plan(cfg, 3, 20000)
	if err != nil {
		t.Fatal(err)
	}
	ec := plan.ExecConfig()
	// Scale work per unit down: heat kernel advances one sweep per unit,
	// W≈2764 sweeps per pattern is fine at 128 cells.
	ec.NewWorkload = func() *engine.Runner { return engine.FromWorkload(workload.NewHeat(128, 0.25)) }
	rep, err := ec.RunOn(rngx.NewStream(1, "sched"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patterns != plan.Patterns() {
		t.Errorf("simulated %d patterns, plan says %d", rep.Patterns, plan.Patterns())
	}
	if math.Abs(rep.FinalProgress-plan.TotalWork) > 1e-6 {
		t.Errorf("progress %g vs %g", rep.FinalProgress, plan.TotalWork)
	}
}

func TestCompareSingleSpeed(t *testing.T) {
	cfg := heraCfg(t)
	oneE, ok := CompareSingleSpeed(cfg, 1.775, 1e6)
	if !ok {
		t.Fatal("single-speed should be feasible at ρ=1.775")
	}
	plan, err := Plan(cfg, 1.775, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !(plan.ExpectedEnergy < oneE) {
		t.Errorf("two-speed plan energy %g should beat single-speed %g", plan.ExpectedEnergy, oneE)
	}
	if _, ok := CompareSingleSpeed(cfg, 0.5, 1e6); ok {
		t.Error("infeasible single-speed should report !ok")
	}
}

func TestSafetyMargin(t *testing.T) {
	cfg := heraCfg(t)
	long, err := Plan(cfg, 3, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	short, err := Plan(cfg, 3, 3000)
	if err != nil {
		t.Fatal(err)
	}
	mLong := long.SafetyMargin(3) / long.ExpectedMakespan
	mShort := short.SafetyMargin(3) / short.ExpectedMakespan
	if !(mLong >= 1 && mShort >= 1) {
		t.Errorf("margins below 1: %g, %g", mLong, mShort)
	}
	// Long applications amortize variance: relative margin shrinks.
	if !(mLong < mShort) {
		t.Errorf("long-app margin %g should be below short-app margin %g", mLong, mShort)
	}
}
