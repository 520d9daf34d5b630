package respeed_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"respeed"
)

func TestQuickstartFlow(t *testing.T) {
	cfg, ok := respeed.ConfigByName("Hera/XScale")
	if !ok {
		t.Fatal("Hera/XScale not in catalog")
	}
	sol, err := respeed.Solve(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Best.Sigma1 != 0.4 || sol.Best.Sigma2 != 0.4 {
		t.Errorf("best pair (%g,%g)", sol.Best.Sigma1, sol.Best.Sigma2)
	}
	if math.Floor(sol.Best.W) != 2764 || math.Floor(sol.Best.EnergyOverhead) != 416 {
		t.Errorf("W=%g E/W=%g", sol.Best.W, sol.Best.EnergyOverhead)
	}
}

func TestFacadeCatalog(t *testing.T) {
	if got := len(respeed.Configs()); got != 8 {
		t.Errorf("configs = %d", got)
	}
	if got := len(respeed.ConfigNames()); got != 8 {
		t.Errorf("names = %d", got)
	}
	if _, ok := respeed.ConfigByName("nope"); ok {
		t.Error("bogus config resolved")
	}
}

func TestFacadeSingleVsTwoSpeed(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	gain, err := respeed.TwoSpeedGain(cfg, 1.775)
	if err != nil {
		t.Fatal(err)
	}
	if !(gain > 0) {
		t.Errorf("gain = %g at ρ=1.775, want > 0", gain)
	}
	one, err := respeed.SolveSingleSpeed(cfg, 1.775)
	if err != nil {
		t.Fatal(err)
	}
	two, err := respeed.Solve(cfg, 1.775)
	if err != nil {
		t.Fatal(err)
	}
	wantGain := (one.Best.EnergyOverhead - two.Best.EnergyOverhead) / one.Best.EnergyOverhead
	if math.Abs(gain-wantGain) > 1e-12 {
		t.Errorf("gain %g inconsistent with solutions (%g)", gain, wantGain)
	}
}

func TestFacadeExactSolver(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	best, grid, err := respeed.SolveExact(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best.Sigma1 != 0.4 || best.Sigma2 != 0.4 {
		t.Errorf("exact best pair (%g,%g)", best.Sigma1, best.Sigma2)
	}
	if len(grid) != 25 {
		t.Errorf("grid size %d", len(grid))
	}
}

func TestFacadeSigma1Table(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	rows := respeed.Sigma1Table(cfg, 1.4)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	feasible := 0
	for _, r := range rows {
		if r.Feasible {
			feasible++
		}
	}
	if feasible != 2 {
		t.Errorf("feasible σ1 count = %d, want 2 (paper ρ=1.4 table)", feasible)
	}
}

func TestFacadeSimulation(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	p.Lambda *= 100
	// Simulate at the boosted rate by overriding the catalog value: use
	// SimulatePatterns on an artificial config.
	boosted := cfg
	boosted.Platform.Lambda = p.Lambda
	plan := respeed.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
	est, err := respeed.SimulatePatterns(boosted, plan, 20000, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := p.ExpectedTime(plan.W, plan.Sigma1, plan.Sigma2)
	if d := math.Abs(est.Time.Mean - want); d > 4*est.Time.StdErr {
		t.Errorf("sim mean %g vs analytic %g (Δ=%g, 4se=%g)", est.Time.Mean, want, d, 4*est.Time.StdErr)
	}
}

func TestFacadeRunWorkload(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	rep, err := respeed.RunWorkload(respeed.ExecConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R, LambdaS: 2e-3},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 300,
	}, respeed.NewHeatWorkload(128, 0.25), 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SilentDetected != rep.SilentInjected {
		t.Errorf("detections %d != injections %d", rep.SilentDetected, rep.SilentInjected)
	}
	if rep.FinalProgress != 300 {
		t.Errorf("progress %g", rep.FinalProgress)
	}
}

// TestFacadeRunsLeaveCallerWorkload runs one caller workload twice
// through RunWorkload and RunScenario: every run works on a clone, so
// the workload keeps its state and the second run repeats the first.
func TestFacadeRunsLeaveCallerWorkload(t *testing.T) {
	cfg, _ := respeed.ConfigByName("Hera/XScale")
	p := respeed.ParamsFor(cfg)
	ec := respeed.ExecConfig{
		Plan:      respeed.Plan{W: 50, Sigma1: 0.4, Sigma2: 0.8},
		Costs:     respeed.Costs{C: p.C, V: p.V, R: p.R, LambdaS: 2e-3, LambdaF: 5e-4},
		Model:     respeed.PowerModelFor(cfg),
		TotalWork: 300,
	}
	w := respeed.NewHeatWorkload(128, 0.25)
	state := append([]byte(nil), w.State()...)
	runs := map[string]func() (respeed.ExecReport, error){
		"RunWorkload": func() (respeed.ExecReport, error) { return respeed.RunWorkload(ec, w, 7) },
		"RunScenario": func() (respeed.ExecReport, error) {
			return respeed.RunScenario(ec, func() respeed.Workload { return w }, 7)
		},
	}
	for name, run := range runs {
		first, err := run()
		if err != nil {
			t.Fatal(err)
		}
		second, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: a second run on the same workload differs:\n got %+v\nwant %+v", name, second, first)
		}
		if first.FinalProgress != 300 || !bytes.Equal(w.State(), state) {
			t.Errorf("%s advanced the caller's workload (run progress %g)", name, first.FinalProgress)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(respeed.Experiments()) < 20 {
		t.Errorf("experiments = %d", len(respeed.Experiments()))
	}
	e, ok := respeed.ExperimentByID("table-rho3")
	if !ok {
		t.Fatal("table-rho3 missing")
	}
	res, err := e.Run(respeed.ExperimentOpts{Points: 5, Replications: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) == 0 {
		t.Error("no tables from table-rho3")
	}
	if respeed.DefaultExperimentOpts().Replications == 0 {
		t.Error("default opts empty")
	}
}
