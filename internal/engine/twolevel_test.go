package engine

import (
	"math"
	"testing"

	"respeed/internal/rngx"
	"respeed/internal/workload"
)

// Two-level (memory+disk) checkpointing: silent errors roll back to the
// memory level, fail-stop crashes wipe memory and roll back to the last
// disk checkpoint, and the disk interval k trades I/O against rollback.

func twoLevelRunner() *Runner { return FromWorkload(workload.NewHeat(128, 0.25)) }

// twoLevelScenario is twenty W=50 patterns with cheap memory and
// expensive disk checkpoints every k patterns.
func twoLevelScenario(lambdaS, lambdaF float64, k int) Scenario {
	return Scenario{
		Plan:        Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:       Costs{V: 15.4, R: 30, LambdaS: lambdaS, LambdaF: lambdaF},
		Model:       testModel(),
		TotalWork:   1000, // 20 patterns
		TwoLevel:    &TwoLevelSpec{MemC: 20, DiskC: 300, DiskR: 300, Every: k},
		NewWorkload: twoLevelRunner,
	}
}

// runTwoLevelApp executes sc's two-level composition with aggregate
// faults on rng and plain summed energy — the historical two-level
// simulator's billing.
func runTwoLevelApp(sc Scenario, wl *Runner, rng *rngx.Stream) (Report, error) {
	total := len(sc.patternSizes())
	app, err := NewApp(AppConfig{
		Plan:     sc.Plan,
		Verify:   sc.Costs.V,
		Sizes:    sc.patternSizes(),
		Faults:   NewAggregateFaults(sc.Costs.LambdaS, sc.Costs.LambdaF, rng),
		Tier:     NewTwoLevel(*sc.TwoLevel, sc.Costs.R, total),
		Recorder: NewSumRecorder(sc.Model),
	}, wl)
	if err != nil {
		return Report{}, err
	}
	return app.Run()
}

func runTwoLevel(t *testing.T, sc Scenario, seed uint64, name string) Report {
	t.Helper()
	rep, err := runTwoLevelApp(sc, twoLevelRunner(), rngx.NewStream(seed, name))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestTwoLevelErrorFree(t *testing.T) {
	rep := runTwoLevel(t, twoLevelScenario(0, 0, 4), 1, "tl")
	if rep.Attempts != 20 {
		t.Errorf("executions %d, want 20", rep.Attempts)
	}
	if rep.MemCommits != 20 {
		t.Errorf("mem commits %d, want 20", rep.MemCommits)
	}
	// Disk checkpoints at patterns 3,7,11,15,19 → 5 (the final one is a
	// scheduled k-th).
	if rep.DiskCommits != 5 {
		t.Errorf("disk commits %d, want 5", rep.DiskCommits)
	}
	// Makespan: 20 × ((50+15.4)/0.4 + 20) + 5×300.
	want := 20*((50+15.4)/0.4+20) + 5*300
	if math.Abs(rep.Makespan-want) > 1e-6 {
		t.Errorf("makespan %g, want %g", rep.Makespan, want)
	}
}

func TestTwoLevelFinalPatternAlwaysOnDisk(t *testing.T) {
	// With k=7 and 20 patterns, scheduled disk checkpoints land at 6 and
	// 13; the final pattern 19 gets one regardless → 3 total.
	rep := runTwoLevel(t, twoLevelScenario(0, 0, 7), 2, "tl-final")
	if rep.DiskCommits != 3 {
		t.Errorf("disk commits %d, want 3", rep.DiskCommits)
	}
}

func TestTwoLevelSilentUsesMemoryLevel(t *testing.T) {
	rep := runTwoLevel(t, twoLevelScenario(3e-3, 0, 4), 3, "tl-silent")
	if rep.SilentInjected == 0 {
		t.Fatal("no silent errors sampled")
	}
	if rep.MemRecoveries != rep.SilentInjected {
		t.Errorf("memory recoveries %d != silent errors %d", rep.MemRecoveries, rep.SilentInjected)
	}
	if rep.DiskRecoveries != 0 {
		t.Errorf("silent errors triggered %d disk recoveries", rep.DiskRecoveries)
	}
	if rep.PatternsLost != 0 {
		t.Errorf("silent errors lost %d committed patterns", rep.PatternsLost)
	}
}

func TestTwoLevelFailStopRollsBackToDisk(t *testing.T) {
	const k = 5
	rep := runTwoLevel(t, twoLevelScenario(0, 4e-3, k), 4, "tl-fs")
	if rep.FailStops == 0 {
		t.Fatal("no fail-stops sampled")
	}
	if rep.DiskRecoveries != rep.FailStops {
		t.Errorf("disk recoveries %d != fail-stops %d", rep.DiskRecoveries, rep.FailStops)
	}
	// Each crash can lose at most k−1 committed patterns.
	if rep.PatternsLost > rep.FailStops*(k-1) {
		t.Errorf("lost %d patterns across %d crashes with k=%d", rep.PatternsLost, rep.FailStops, k)
	}
	// Re-executions happened: executions exceed patterns.
	if rep.Attempts <= 20 {
		t.Errorf("executions %d should exceed the 20 patterns", rep.Attempts)
	}
}

func TestTwoLevelFinalStateClean(t *testing.T) {
	cleanRep := runTwoLevel(t, twoLevelScenario(0, 0, 4), 5, "tl-clean")
	dirtyRep := runTwoLevel(t, twoLevelScenario(3e-3, 3e-3, 4), 6, "tl-dirty")
	if dirtyRep.SilentInjected == 0 || dirtyRep.FailStops == 0 {
		t.Fatalf("want both error kinds (got %d silent, %d fail-stop)", dirtyRep.SilentInjected, dirtyRep.FailStops)
	}
	if dirtyRep.StateDigest != cleanRep.StateDigest {
		t.Error("two-level execution ended corrupted")
	}
	if !(dirtyRep.Makespan > cleanRep.Makespan) {
		t.Error("errors should lengthen the run")
	}
}

func TestTwoLevelKTradeoff(t *testing.T) {
	// Small k: many expensive disk checkpoints. Large k: long rollbacks.
	// With frequent crashes, the mean makespan over k must not be
	// monotone-decreasing through k=1..12 — there is an interior trade-off
	// (k=1 pays maximal checkpoint cost, k=12 maximal rollback cost).
	mean := func(k int) float64 {
		sc := twoLevelScenario(0, 2e-3, k)
		sc.NewWorkload = func() *Runner { return FromWorkload(workload.NewStream(9, 8)) }
		est, err := ReplicateScenario(sc, 7, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		if est.Energy.Mean <= 0 || est.Time.StdDev < 0 {
			t.Fatalf("estimate not aggregated: %+v", est)
		}
		return est.Time.Mean
	}
	m1, m4, m20 := mean(1), mean(4), mean(20)
	if !(m4 < m1) {
		t.Errorf("k=4 (%.0f) should beat k=1 (%.0f): disk checkpoints are expensive", m4, m1)
	}
	if !(m4 < m20) {
		t.Errorf("k=4 (%.0f) should beat k=20 (%.0f): rollbacks are expensive", m4, m20)
	}
}

func TestTwoLevelValidate(t *testing.T) {
	good := twoLevelScenario(0, 0, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Scenario){
		"k=0":                    func(sc *Scenario) { sc.TwoLevel = &TwoLevelSpec{MemC: 20, DiskC: 300, DiskR: 300} },
		"non-multiple TotalWork": func(sc *Scenario) { sc.TotalWork = 1025 }, // W=50
		"negative MemC":          func(sc *Scenario) { sc.TwoLevel = &TwoLevelSpec{MemC: -1, DiskC: 300, DiskR: 300, Every: 4} },
		"missing workload":       func(sc *Scenario) { sc.NewWorkload = nil },
	} {
		bad := good
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s should be rejected", name)
		}
	}
	if _, err := runTwoLevelApp(good, nil, rngx.NewStream(1, "x")); err == nil {
		t.Error("nil workload should be rejected")
	}
	if _, err := ReplicateScenario(good, 1, 0, 0); err == nil {
		t.Error("n=0 should be rejected")
	}
}
