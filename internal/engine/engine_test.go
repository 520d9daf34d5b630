// Unit tests for the unified engine: size layout, scenario validation,
// determinism, worker-count independence, and the composed scenarios
// the siloed simulators could not express. The bit-exact equivalence
// with the legacy simulators lives in golden_test.go.
package engine

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"respeed/internal/energy"
	"respeed/internal/workload"
)

func testModel() energy.Model { return energy.Model{Kappa: 1550, Pidle: 60, Pio: 5.23} }

// testScenario is a small, fast base composition (aggregate faults,
// single-level tier) that the composition tests extend.
func testScenario() Scenario {
	return Scenario{
		Plan:        Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:       Costs{C: 6, V: 1.5, R: 6, LambdaS: 2e-3},
		Model:       testModel(),
		TotalWork:   500,
		NewWorkload: func() *Runner { return FromWorkload(workload.NewStream(7, 64)) },
	}
}

func TestPatternSizes(t *testing.T) {
	cases := []struct {
		total, w float64
		want     []float64
	}{
		{500, 50, []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50}},
		{120, 50, []float64{50, 50, 20}},
		{30, 50, []float64{30}},
	}
	for _, c := range cases {
		got := PatternSizes(c.total, c.w)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("PatternSizes(%g, %g) = %v, want %v", c.total, c.w, got, c.want)
		}
	}
	// The subtraction loop must consume the full total exactly.
	var sum float64
	for _, s := range PatternSizes(333.25, 47.5) {
		sum += s
	}
	if math.Abs(sum-333.25) > 1e-9 {
		t.Errorf("PatternSizes does not cover the total: sum %g", sum)
	}
}

func TestWholePatterns(t *testing.T) {
	got := WholePatterns(4, 50)
	if !reflect.DeepEqual(got, []float64{50, 50, 50, 50}) {
		t.Errorf("WholePatterns(4, 50) = %v", got)
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string // substring of the error; "" = valid
	}{
		{"base is valid", func(sc *Scenario) {}, ""},
		{"bad plan", func(sc *Scenario) { sc.Plan.Sigma1 = 0 }, "invalid plan"},
		{"negative cost", func(sc *Scenario) { sc.Costs.R = -1 }, "invalid costs"},
		{"no work", func(sc *Scenario) { sc.TotalWork = 0 }, "TotalWork must be positive"},
		{"rates on nodes", func(sc *Scenario) {
			sc.Nodes = UniformNodes(4, 2e-3, 0)
		}, "rates belong on nodes"},
		{"nodes valid", func(sc *Scenario) {
			sc.Costs.LambdaS = 0
			sc.Nodes = UniformNodes(4, 2e-3, 0)
		}, ""},
		{"twolevel needs whole multiple", func(sc *Scenario) {
			sc.TotalWork = 510
			sc.TwoLevel = &TwoLevelSpec{MemC: 1, DiskC: 6, DiskR: 12, Every: 3}
		}, "whole multiple"},
		{"partial excludes skip", func(sc *Scenario) {
			sc.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}
			sc.SkipVerification = true
		}, "mutually exclusive"},
		{"bad partial", func(sc *Scenario) {
			sc.Partial = &Partial{Segments: 1, Coverage: 0.8}
		}, "≥ 2 segments"},
		{"no workload", func(sc *Scenario) { sc.NewWorkload = nil }, "workload factory"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := testScenario()
			c.mutate(&sc)
			err := sc.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestScenarioDeterminism: the same (scenario, seed) must reproduce the
// report exactly, and a different seed must not.
func TestScenarioDeterminism(t *testing.T) {
	sc := testScenario()
	a, err := sc.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	c, err := sc.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == c.Makespan && a.Energy == c.Energy {
		t.Error("different seeds produced identical makespan and energy")
	}
}

// TestReplicateScenarioWorkerIndependence: the chunked fan-out must be
// bit-identical for any worker-pool size.
func TestReplicateScenarioWorkerIndependence(t *testing.T) {
	sc := testScenario()
	base, err := ReplicateScenario(sc, 5, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 0} {
		got, err := ReplicateScenario(sc, 5, 40, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d changed the estimate:\n%+v\n%+v", workers, base, got)
		}
	}
	if base.Patterns != 40 || base.MeanAttempts < 1 {
		t.Errorf("implausible estimate: %+v", base)
	}
}

func TestReplicateScenarioRejectsZero(t *testing.T) {
	if _, err := ReplicateScenario(testScenario(), 5, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

// TestScenarioClusterTwoLevel exercises the first previously-impossible
// composition: per-node fault processes + memory/disk checkpointing.
func TestScenarioClusterTwoLevel(t *testing.T) {
	sc := testScenario()
	sc.Costs.LambdaS = 0
	sc.Nodes = UniformNodes(4, 2e-3, 5e-4)
	sc.TwoLevel = &TwoLevelSpec{MemC: 1.5, DiskC: 6, DiskR: 12, Every: 3}
	rep, err := sc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patterns < 10 {
		t.Errorf("Patterns = %d, want ≥ 10 (disk rollbacks may re-do patterns)", rep.Patterns)
	}
	if rep.MemCommits == 0 || rep.DiskCommits == 0 {
		t.Errorf("two-level tier inactive: mem %d, disk %d", rep.MemCommits, rep.DiskCommits)
	}
	if len(rep.PerNodeErrors) != 4 {
		t.Errorf("PerNodeErrors = %v, want 4 entries", rep.PerNodeErrors)
	}
	total := 0
	for _, e := range rep.PerNodeErrors {
		total += e
	}
	if total != rep.SilentInjected+rep.FailStops {
		t.Errorf("per-node errors sum %d ≠ injected %d + failstops %d",
			total, rep.SilentInjected, rep.FailStops)
	}
	if rep.SilentDetected != rep.SilentInjected {
		t.Errorf("detected %d of %d injected SDCs", rep.SilentDetected, rep.SilentInjected)
	}
}

// TestScenarioPartialFailStop exercises the second composition: partial
// verification with fail-stop errors in the mix.
func TestScenarioPartialFailStop(t *testing.T) {
	sc := testScenario()
	sc.Costs.LambdaF = 5e-4
	sc.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}
	rep, err := sc.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patterns != 10 {
		t.Errorf("Patterns = %d, want 10", rep.Patterns)
	}
	if rep.PartialChecks == 0 {
		t.Error("no partial checks ran")
	}
	if rep.FailStops == 0 && rep.SilentInjected == 0 {
		t.Error("no errors struck; raise rates so the composition is exercised")
	}
	if rep.SilentDetected != rep.SilentInjected {
		t.Errorf("detected %d of %d injected SDCs", rep.SilentDetected, rep.SilentInjected)
	}
}

// TestScenarioDigestInvariant: with verified checkpoints the final state
// must equal an error-free execution of the same workload, whatever the
// fault/tier composition.
func TestScenarioDigestInvariant(t *testing.T) {
	clean := testScenario()
	clean.Costs.LambdaS = 0
	cleanRep, err := clean.Run(3)
	if err != nil {
		t.Fatal(err)
	}

	noisy := testScenario()
	noisy.Costs.LambdaF = 1e-3
	noisy.Partial = &Partial{Segments: 4, Coverage: 0.8, Cost: 0.4}
	noisyRep, err := noisy.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRep.StateDigest != noisyRep.StateDigest {
		t.Errorf("digest diverged: clean %016x, noisy %016x",
			uint64(cleanRep.StateDigest), uint64(noisyRep.StateDigest))
	}
	if noisyRep.Makespan <= cleanRep.Makespan {
		t.Errorf("errors made execution faster: %g ≤ %g", noisyRep.Makespan, cleanRep.Makespan)
	}
}

// TestReplicateWorkers pins the pool-size clamps.
func TestReplicateWorkers(t *testing.T) {
	if got := ReplicateWorkers(5, 64); got != 5 {
		t.Errorf("ReplicateWorkers(5, 64) = %d", got)
	}
	if got := ReplicateWorkers(100, 64); got != 64 {
		t.Errorf("ReplicateWorkers(100, 64) = %d, want clamped to chunks", got)
	}
	if got := ReplicateWorkers(0, 64); got < 1 {
		t.Errorf("ReplicateWorkers(0, 64) = %d, want ≥ 1", got)
	}
}
