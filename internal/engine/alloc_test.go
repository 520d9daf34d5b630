package engine

import (
	"context"
	"runtime"
	"testing"

	"respeed/internal/faults"
)

// Allocation-regression tests: the replication hot path was rebuilt to
// be allocation-free per pattern and allocation-lean per fan-out (from
// 519 allocs per ReplicatePatternParallel call in the per-call-pool
// design). These pins run in regular CI — unlike benchmarks, they fail
// the build on regression rather than just recording a number.

// TestRunPatternNoAllocs pins the per-pattern simulation loop at zero
// heap allocations.
func TestRunPatternNoAllocs(t *testing.T) {
	p := benchPattern(t)
	p.RunPattern() // warm any lazy state before measuring
	if allocs := testing.AllocsPerRun(200, func() { p.RunPattern() }); allocs != 0 {
		t.Errorf("RunPattern allocates %.0f times per pattern, want 0", allocs)
	}
}

// TestPerNodeFaultsNoAllocs pins per-node fault sampling at zero heap
// allocations per window: the earliest-arrival scan keeps no queue.
func TestPerNodeFaultsNoAllocs(t *testing.T) {
	f, err := NewPerNodeFaults(UniformNodes(16, 1e-2, 1e-2), 1, "alloc")
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	sample := func() {
		f.SampleWindow(now, 60, 50)
		f.SampleFailStop(now, 10)
		now += 70
	}
	sample()
	if allocs := testing.AllocsPerRun(200, sample); allocs != 0 {
		t.Errorf("PerNodeFaults allocates %.0f times per window, want 0", allocs)
	}
}

// fanOutAllocBudget bounds one full 64-chunk parallel replication call:
// chunk accumulators, the fan-out task and channel, recruited-goroutine
// overhead and the final estimate. Measured at ~4; the budget leaves
// headroom for scheduler noise while still catching any return to
// per-chunk construction (which costs hundreds).
const fanOutAllocBudget = 100

func TestReplicatePatternParallelAllocBudget(t *testing.T) {
	plan := Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	costs := Costs{C: 6, V: 1.5, R: 6, LambdaS: 1e-4}
	run := func() {
		if _, err := ReplicatePatternParallelCtx(context.Background(), plan, costs, testModel(), 1, 1000, 0); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the shared executor and scratch pools
	if allocs := testing.AllocsPerRun(10, run); allocs > fanOutAllocBudget {
		t.Errorf("ReplicatePatternParallel allocates %.0f times per call, budget %d", allocs, fanOutAllocBudget)
	}
}

// scenarioAllocBudget bounds one full 50-run pooled scenario
// replication call of the aggregate composition: the campaign context
// (prototype workload, initial state, pattern sizes), the fan-out
// machinery, and nothing per run — every per-run component comes from
// the scratch pool and is reset in place, and the reference trajectory
// from the process-wide memo. Measured at 19 (from 2360 in the
// build-per-run design); the few allocations of headroom are fewer
// than the 50 any per-run allocation would add.
const scenarioAllocBudget = 24

// scenarioByteBudget bounds the bytes one such call allocates. Measured
// at ~11 KB for the aggregate composition and ~12 KB for the simulate
// shape. A call's reference trajectory comes from the process-wide
// memo, and at the simulate shape one trajectory holds 100 clean states
// of 2,064 B (≈202 KiB), so stepping it per call breaks the budget.
const scenarioByteBudget = 48 << 10

func TestReplicateScenarioAllocBudget(t *testing.T) {
	testScenarioAllocBudget(t, testScenario(), 50, scenarioAllocBudget)
}

// simulateAllocBudget bounds one n=8 replication call of the simulate
// shape (cluster-twolevel on heat2d 16×16): the per-node composition,
// whose fault process resets its node streams in place. Its runs count
// strikes per node but copy nothing out: only a single Run or RunOn
// hands the per-node counts to its caller. Measured at 18 (28 while
// every replication copied them, ~170 when every run rebuilt its
// per-node process); the headroom is below the 8 any per-run allocation
// would add.
const simulateAllocBudget = 22

func TestReplicateScenarioSimulateAllocBudget(t *testing.T) {
	testScenarioAllocBudget(t, simulateShapeScenario(), 8, simulateAllocBudget)
}

// renewalAllocBudget bounds one 50-run replication call of the renewal
// shape (the weibull-failstop composition): its fault process is reset
// in place like the others, reseeding each channel's stream under its
// cached name, so nothing is built per run. Measured at 22 (~770 when
// every run built its renewal process, channels and stream names); the
// headroom is below the 50 any per-run allocation would add.
const renewalAllocBudget = 26

func TestReplicateScenarioRenewalAllocBudget(t *testing.T) {
	testScenarioAllocBudget(t, renewalShapeScenario(), 50, renewalAllocBudget)
}

// perNodeAllocBudget bounds one 50-run replication call of the
// compositions that attribute strikes to nodes: cluster-twolevel's
// per-node processes, and the correlated-bursts example spec's
// multi-node renewal channels under partial verification. Measured at
// 15 and 19 (65 and 69 while every replication copied its per-node
// counts into a report nobody read); the headroom is below the 50 any
// per-run allocation would add.
const perNodeAllocBudget = 24

func TestReplicateScenarioPerNodeAllocBudget(t *testing.T) {
	bursts := testScenario()
	bursts.Costs.LambdaS = 0
	bursts.Renewal = &Renewal{
		Silent:      &Arrivals{Dist: faults.LogNormal{Mu: 6.5, Sigma: 1.2}},
		FailStop:    &Arrivals{Dist: faults.Exponential{Rate: 4e-4}},
		Burst:       &Arrivals{Dist: faults.Weibull{Shape: 0.8, Scale: 4000}},
		BurstSpread: 0.5,
		Nodes:       4,
	}
	bursts.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.375}

	t.Run("cluster-twolevel", func(t *testing.T) { testScenarioAllocBudget(t, clusterScenario(), 50, perNodeAllocBudget) })
	t.Run("correlated-bursts", func(t *testing.T) { testScenarioAllocBudget(t, bursts, 50, perNodeAllocBudget) })
}

// testScenarioAllocBudget holds one warm n-run ReplicateScenario call of
// sc to budget allocations and to scenarioByteBudget bytes allocated,
// both averaged over ten calls at GOMAXPROCS=1 as testing.AllocsPerRun
// measures.
func testScenarioAllocBudget(t *testing.T, sc Scenario, n int, budget float64) {
	run := func() {
		if _, err := ReplicateScenario(sc, 1, n, 0); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm the shared executor and scenario scratch pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := float64((after.Mallocs - before.Mallocs) / calls)
	bytes := float64((after.TotalAlloc - before.TotalAlloc) / calls)
	if raceEnabled {
		// The race detector drops pooled scratch, so the counts measure
		// it, not the pooled path; the non-race run enforces the budgets.
		t.Skipf("race detector on: %.0f allocs, %.0f B per call not held to the pooled budgets", allocs, bytes)
	}
	if allocs > budget {
		t.Errorf("ReplicateScenario allocates %.0f times per call, budget %.0f", allocs, budget)
	}
	if bytes > scenarioByteBudget {
		t.Errorf("ReplicateScenario allocates %.0f B per call, budget %d", bytes, scenarioByteBudget)
	}
	t.Logf("%.0f allocs, %.0f B per call; budgets %.0f allocs, %d B", allocs, bytes, budget, scenarioByteBudget)
}

// TestChunkFanOutAllocBudget bounds the executor fan-out machinery alone
// (no simulation): the per-call cost of dispatching 64 no-op chunks.
func TestChunkFanOutAllocBudget(t *testing.T) {
	e := SharedExecutor()
	run := func() {
		if err := e.FanOut(context.Background(), 64, 4, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 32 {
		t.Errorf("FanOut allocates %.0f times per call, budget 32", allocs)
	}
}
