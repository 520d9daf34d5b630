package engine

import (
	"math"
	"testing"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/platform"
)

// The node-level platform the paper abstracts away: N nodes executing a
// divisible-load pattern in parallel, each with its own silent and
// fail-stop processes. These tests check the aggregation argument of
// Section 2.1 — N independent per-node Poisson processes of rate λ/N
// are indistinguishable at pattern granularity from one aggregate
// process of rate λ, because a pattern fails as soon as ANY node is
// struck — plus the per-node error attribution.

// clusterSetup is a Hera/XScale cluster in aggregate terms: the
// pattern policy and platform costs at aggregate speed, the error rates
// on the nodes.
type clusterSetup struct {
	nodes []Node
	plan  Plan
	costs Costs
	model energy.Model
	p     core.Params
}

func heraCluster(nodes int, boost float64) clusterSetup {
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	p.Lambda *= boost
	return clusterSetup{
		nodes: UniformNodes(nodes, p.Lambda, 0),
		plan:  Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8},
		costs: Costs{C: p.C, V: p.V, R: p.R},
		model: energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio},
		p:     p,
	}
}

// clusterEngine is the node-level pattern simulator: per-node faults on
// the "cluster" streams of seed and platform-level billing, where
// compute+verify is one aggregate Compute segment.
func clusterEngine(nodes []Node, plan Plan, costs Costs, model energy.Model, seed uint64) (*PatternEngine, *PerNodeFaults, error) {
	fp, err := NewPerNodeFaults(nodes, seed, "cluster")
	if err != nil {
		return nil, nil, err
	}
	eng, err := NewPatternEngine(PatternConfig{
		Plan:          plan,
		Costs:         costs,
		Faults:        fp,
		Recorder:      NewSumRecorder(model),
		CombineVerify: true,
	})
	return eng, fp, err
}

func replicateCluster(t *testing.T, c clusterSetup, seed uint64, n int) Estimate {
	t.Helper()
	eng, _, err := clusterEngine(c.nodes, c.plan, c.costs, c.model, seed)
	if err != nil {
		t.Fatal(err)
	}
	est, err := ReplicatePattern(eng, c.plan.W, n)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestUniformSplit(t *testing.T) {
	nodes := UniformNodes(8, 8e-4, 4e-4)
	if len(nodes) != 8 {
		t.Fatalf("nodes %d", len(nodes))
	}
	var silent, fail, share float64
	for _, n := range nodes {
		silent += n.SilentRate
		fail += n.FailStopRate
		share += n.SpeedShare
	}
	if math.Abs(silent-8e-4) > 1e-18 || math.Abs(fail-4e-4) > 1e-18 {
		t.Errorf("rates don't sum: %g, %g", silent, fail)
	}
	if math.Abs(share-1) > 1e-12 {
		t.Errorf("shares sum to %g", share)
	}
}

func TestClusterValidate(t *testing.T) {
	good := testScenario()
	good.Costs.LambdaS = 0
	good.Nodes = UniformNodes(4, 1e-3, 0)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Costs.LambdaS = 1e-6
	if err := bad.Validate(); err == nil {
		t.Error("platform-level rates should be rejected")
	}
	if err := ValidateNodes(nil); err == nil {
		t.Error("empty node list should fail")
	}
	nodes := UniformNodes(4, 1e-6, 0)
	nodes[0].SpeedShare = 0.5 // shares no longer sum to 1
	if err := ValidateNodes(nodes); err == nil {
		t.Error("bad speed shares should fail")
	}
	nodes = UniformNodes(2, 1e-6, 0)
	nodes[1].SilentRate = -1
	if err := ValidateNodes(nodes); err == nil {
		t.Error("negative node rate should fail")
	}
	if _, err := NewPerNodeFaults(nodes, 1, "cluster"); err == nil {
		t.Error("NewPerNodeFaults should validate its nodes")
	}
}

// TestAggregationTheorem is the aggregation argument itself: a cluster
// of N nodes with per-node rate λ/N must match the single-machine
// aggregate-model expectation (Proposition 2 with rate λ), because the
// union of independent Poisson processes is a Poisson process with the
// summed rate.
func TestAggregationTheorem(t *testing.T) {
	for _, nodes := range []int{1, 4, 32} {
		c := heraCluster(nodes, 100)
		est := replicateCluster(t, c, 42, 30000)
		want := c.p.ExpectedTime(c.plan.W, c.plan.Sigma1, c.plan.Sigma2)
		if d := math.Abs(est.Time.Mean - want); d > 4*est.Time.StdErr {
			t.Errorf("%d nodes: cluster mean %g vs aggregate %g (Δ=%g, 4se=%g)",
				nodes, est.Time.Mean, want, d, 4*est.Time.StdErr)
		}
		wantE := c.p.ExpectedEnergy(c.plan.W, c.plan.Sigma1, c.plan.Sigma2)
		if d := math.Abs(est.Energy.Mean - wantE); d > 4*est.Energy.StdErr {
			t.Errorf("%d nodes: cluster energy %g vs aggregate %g", nodes, est.Energy.Mean, wantE)
		}
	}
}

func TestAggregationWithFailStop(t *testing.T) {
	// Same theorem with both error sources, against the Section 5
	// recursion.
	c := heraCluster(8, 100)
	cp := c.p.Split(0.4)
	for i := range c.nodes {
		c.nodes[i].SilentRate = cp.LambdaS / float64(len(c.nodes))
		c.nodes[i].FailStopRate = cp.LambdaF / float64(len(c.nodes))
	}
	est := replicateCluster(t, c, 7, 30000)
	want := cp.ExpectedTimeCombined(c.plan.W, c.plan.Sigma1, c.plan.Sigma2)
	if d := math.Abs(est.Time.Mean - want); d > 4*est.Time.StdErr {
		t.Errorf("cluster %g vs combined recursion %g (Δ=%g, 4se=%g)",
			est.Time.Mean, want, d, 4*est.Time.StdErr)
	}
}

// runClusterPatterns executes n patterns and returns the per-node error
// counts and the total silent errors the patterns reported.
func runClusterPatterns(t *testing.T, c clusterSetup, seed uint64, n int) (perNode []int, silent int) {
	t.Helper()
	eng, fp, err := clusterEngine(c.nodes, c.plan, c.costs, c.model, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		silent += eng.RunPattern().SilentErrors
	}
	return fp.PerNodeErrors(), silent
}

func TestPerNodeErrorBalance(t *testing.T) {
	// Identical nodes must absorb statistically equal error counts.
	perNode, silent := runClusterPatterns(t, heraCluster(4, 300), 5, 20000)
	total := 0
	for _, c := range perNode {
		total += c
	}
	if total == 0 {
		t.Fatal("no errors recorded")
	}
	want := float64(total) / float64(len(perNode))
	for i, c := range perNode {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("node %d absorbed %d errors, want ≈ %.0f", i, c, want)
		}
	}
	if silent != total {
		t.Errorf("silent %d vs per-node sum %d", silent, total)
	}
}

func TestHeterogeneousRates(t *testing.T) {
	// One flaky node carrying most of the error rate must absorb most of
	// the errors.
	c := heraCluster(4, 300)
	c.nodes[0].SilentRate = c.p.Lambda * 0.7
	for i := 1; i < 4; i++ {
		c.nodes[i].SilentRate = c.p.Lambda * 0.1
	}
	perNode, _ := runClusterPatterns(t, c, 11, 10000)
	total := 0
	for _, n := range perNode {
		total += n
	}
	if total == 0 {
		t.Fatal("no errors")
	}
	frac := float64(perNode[0]) / float64(total)
	if math.Abs(frac-0.7) > 0.05 {
		t.Errorf("flaky node absorbed %.2f of errors, want ≈ 0.70", frac)
	}
}

func TestClusterDeterminism(t *testing.T) {
	c := heraCluster(4, 100)
	a := replicateCluster(t, c, 3, 2000)
	b := replicateCluster(t, c, 3, 2000)
	if a.Time.Mean != b.Time.Mean {
		t.Error("same-seed cluster runs differ")
	}
}

func TestClusterReplicateRejectsBadN(t *testing.T) {
	c := heraCluster(2, 1)
	eng, _, err := clusterEngine(c.nodes, c.plan, c.costs, c.model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplicatePattern(eng, c.plan.W, 0); err == nil {
		t.Error("n=0 should be rejected")
	}
}
