package respeed_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"respeed"
)

func TestFacadePlanApplication(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	plan, err := respeed.PlanApplication(cfg, 3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Best.Sigma1 != 0.4 || plan.Best.Sigma2 != 0.4 {
		t.Errorf("plan pair (%g,%g)", plan.Best.Sigma1, plan.Best.Sigma2)
	}
	if !plan.MeetsBound(0.01) {
		t.Error("plan violates its bound")
	}
	if plan.Patterns() <= 0 || plan.ExpectedEnergy <= 0 {
		t.Errorf("degenerate plan %+v", plan)
	}
}

func TestFacadeSolveCombined(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	p.Lambda *= 100
	best, grid, err := respeed.SolveCombined(p.Split(0.5), cfg.Processor.Speeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 25 || !best.Feasible {
		t.Errorf("combined solve shape: grid=%d best=%+v", len(grid), best)
	}
}

func TestFacadeSolveContinuous(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	cont := respeed.SolveContinuous(cfg, 0.15, 1, 1.775)
	if !cont.Feasible {
		t.Fatal("continuous solve infeasible")
	}
	disc, err := respeed.Solve(cfg, 1.775)
	if err != nil {
		t.Fatal(err)
	}
	if cont.EnergyOverhead > disc.Best.EnergyOverhead*(1+1e-6) {
		t.Errorf("continuous %g worse than discrete %g",
			cont.EnergyOverhead, disc.Best.EnergyOverhead)
	}
}

func TestFacadeOptimalSegments(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	tpl := respeed.PartialPattern{Recall: 0.9, PartialCost: 1.5}
	sol, err := respeed.OptimalSegments(cfg, tpl, 0.6, 0.6, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Pattern.Segments < 1 || sol.W <= 0 {
		t.Errorf("degenerate solution %+v", sol)
	}
}

func TestFacadeParallelSimulation(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	cfg.Platform.Lambda *= 100
	plan := respeed.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	a, err := respeed.SimulatePatternsParallel(cfg, plan, 4000, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := respeed.SimulatePatternsParallel(cfg, plan, 4000, 9, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time.Mean != b.Time.Mean {
		t.Error("parallel simulation not worker-count invariant")
	}
}

func TestFacadeTraceAnalysis(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	rec := respeed.NewTrace(0)
	_, err := respeed.RunWorkload(respeed.ExecConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R, LambdaS: 2e-3},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 500,
		Trace:     rec,
	}, respeed.NewHeat2DWorkload(24, 0.2), 5)
	if err != nil {
		t.Fatal(err)
	}
	waste, err := respeed.AnalyzeTrace(rec.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !(waste.Efficiency() > 0 && waste.Efficiency() < 1) {
		t.Errorf("efficiency %g", waste.Efficiency())
	}
	// Conservation.
	sum := waste.UsefulCompute + waste.ReexecCompute + waste.LostCompute +
		waste.Verify + waste.Checkpoint + waste.Recovery
	if math.Abs(sum-waste.Total) > 1e-6*waste.Total {
		t.Errorf("waste parts %g != makespan %g", sum, waste.Total)
	}
}

func TestFacadeMarkdownReport(t *testing.T) {
	e, _ := respeed.ExperimentByID("table-rho3")
	res, err := e.Run(respeed.ExperimentOpts{Points: 5, Replications: 100})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := respeed.WriteExperimentReport(&buf, []respeed.ExperimentResult{res}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "## table-rho3") {
		t.Errorf("report missing section:\n%s", buf.String())
	}
}

// TestAllFiguresShapeInvariants runs every figure experiment at low
// resolution and asserts the universal invariants: three panels per
// swept parameter, speed series drawn from the catalog speed set, and
// two-speed energy never worse than single-speed.
func TestAllFiguresShapeInvariants(t *testing.T) {
	opts := respeed.ExperimentOpts{Seed: 42, Points: 7, Replications: 100}
	speedSets := map[string]map[float64]bool{}
	for _, cfg := range respeed.Configs() {
		set := map[float64]bool{}
		for _, s := range cfg.Processor.Speeds {
			set[s] = true
		}
		speedSets[cfg.Name()] = set
	}
	for n := 2; n <= 14; n++ {
		id := "figure-" + itoa(n)
		e, ok := respeed.ExperimentByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		res, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.Figures)%3 != 0 || len(res.Figures) == 0 {
			t.Errorf("%s: %d panels, want a multiple of 3", id, len(res.Figures))
		}
		for i := 0; i+2 < len(res.Figures); i += 3 {
			speeds, wopt, energyPanel := res.Figures[i], res.Figures[i+1], res.Figures[i+2]
			// Speeds panel: σ1, σ2, σ-single; values in some catalog set.
			for _, s := range speeds.Series {
				for _, y := range s.Y {
					if math.IsNaN(y) {
						continue
					}
					found := false
					for _, set := range speedSets {
						if set[y] {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("%s/%s: non-catalog speed %g", id, speeds.Name, y)
					}
				}
			}
			// Wopt panel: positive where finite.
			for _, s := range wopt.Series {
				for _, y := range s.Y {
					if !math.IsNaN(y) && y <= 0 {
						t.Errorf("%s/%s: non-positive Wopt %g", id, wopt.Name, y)
					}
				}
			}
			// Energy panel: two-speed ≤ one-speed.
			e2, e1 := energyPanel.Series[0].Y, energyPanel.Series[1].Y
			for j := range e2 {
				if math.IsNaN(e2[j]) || math.IsNaN(e1[j]) {
					continue
				}
				if e2[j] > e1[j]*(1+1e-9) {
					t.Errorf("%s/%s: two-speed %g worse than one-speed %g at %d",
						id, energyPanel.Name, e2[j], e1[j], j)
				}
			}
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}

func TestFacadeTwoLevelValidate(t *testing.T) {
	good := respeed.TwoLevelConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{V: 15.4, R: 30, LambdaF: 2e-3},
		MemC:      20,
		DiskC:     300,
		DiskR:     300,
		DiskEvery: 4,
		TotalWork: 1000,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*respeed.TwoLevelConfig){
		"k=0":                    func(c *respeed.TwoLevelConfig) { c.DiskEvery = 0 },
		"non-multiple TotalWork": func(c *respeed.TwoLevelConfig) { c.TotalWork = 1025 },
		"negative MemC":          func(c *respeed.TwoLevelConfig) { c.MemC = -1 },
		"zero TotalWork":         func(c *respeed.TwoLevelConfig) { c.TotalWork = 0 },
		"zero σ1":                func(c *respeed.TwoLevelConfig) { c.Plan.Sigma1 = 0 },
	} {
		bad := good
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s should be rejected", name)
		}
		if _, err := respeed.RunTwoLevel(bad, respeed.NewStreamWorkload(1, 8), 1); err == nil {
			t.Errorf("RunTwoLevel should reject %s", name)
		}
	}
}

func TestFacadeRunWorkloadRejectsPerNodeFaults(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	_, err := respeed.RunWorkload(respeed.ExecConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 500,
		Nodes:     respeed.UniformScenarioNodes(4, 2e-3, 0),
	}, respeed.NewHeatWorkload(64, 0.25), 1)
	if err == nil {
		t.Error("RunWorkload draws from one stream and should reject per-node faults")
	}
}
