package exp

import (
	"fmt"
	"math"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/platform"
	"respeed/internal/rngx"
	"respeed/internal/tablefmt"
	"respeed/internal/trace"
)

// validationRow is the Monte-Carlo check of one configuration.
type validationRow struct {
	config          string
	s1, s2, w       float64
	analyticT, simT float64
	analyticE, simE float64
	ciT, ciE        float64
	attempts        float64
}

func init() {
	register(Experiment{
		ID:    "validate-montecarlo",
		Title: "Monte-Carlo validation of Propositions 2–3 at the ρ=3 optimum (all configurations)",
		Paper: "beyond-paper: samples the renewal process the formulas integrate",
		Run:   runValidateMC,
	})
	register(Experiment{
		ID:    "validate-combined",
		Title: "Monte-Carlo validation of the Section 5 combined-error expectations",
		Paper: "Section 5 (Propositions 4–5 via the Equation 8 recursion)",
		Run:   runValidateCombined,
	})
}

// patternEngine builds the abstract pattern simulator: the aggregate
// fault process on rng and plain summed energy. rec may be nil.
func patternEngine(plan engine.Plan, costs engine.Costs, model energy.Model, rng *rngx.Stream, rec *trace.Recorder) (*engine.PatternEngine, error) {
	return engine.NewPatternEngine(engine.PatternConfig{
		Plan:     plan,
		Costs:    costs,
		Faults:   engine.NewAggregateFaults(costs.LambdaS, costs.LambdaF, rng),
		Recorder: engine.NewSumRecorder(model),
		Trace:    rec,
	})
}

// replicatePattern runs n patterns on one stream and aggregates them.
func replicatePattern(plan engine.Plan, costs engine.Costs, model energy.Model, rng *rngx.Stream, n int) (engine.Estimate, error) {
	eng, err := patternEngine(plan, costs, model, rng, nil)
	if err != nil {
		return engine.Estimate{}, err
	}
	return engine.ReplicatePattern(eng, plan.W, n)
}

func runValidateMC(o Options) (Result, error) {
	o = o.normalize()
	configs := platform.Configs()
	rows, err := parallelMap(configs, o.Workers, func(i int, cfg platform.Config) (validationRow, error) {
		p := core.FromConfig(cfg)
		// Scale the error rate up 50× so the replication budget sees
		// plenty of errors; the formulas hold at any rate, so validating
		// at the boosted rate validates the model where it is hardest
		// (more re-executions, larger higher-order terms). 50× is the
		// largest round boost at which all eight configurations remain
		// feasible at ρ=3 (Coastal SSD's ρmin crosses 3 near 100×).
		p.Lambda *= 50
		sol, err := p.Solve(cfg.Processor.Speeds, defaultRho)
		if err != nil {
			return validationRow{}, fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		b := sol.Best
		plan := engine.Plan{W: b.W, Sigma1: b.Sigma1, Sigma2: b.Sigma2}
		costs := engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda}
		model := energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio}
		rng := rngx.NewStream(o.Seed, "validate/"+cfg.Name())
		est, err := replicatePattern(plan, costs, model, rng, o.Replications)
		if err != nil {
			return validationRow{}, err
		}
		return validationRow{
			config: cfg.Name(), s1: b.Sigma1, s2: b.Sigma2, w: b.W,
			analyticT: p.ExpectedTime(b.W, b.Sigma1, b.Sigma2),
			simT:      est.Time.Mean, ciT: est.Time.CI95,
			analyticE: p.ExpectedEnergy(b.W, b.Sigma1, b.Sigma2),
			simE:      est.Energy.Mean, ciE: est.Energy.CI95,
			attempts: est.MeanAttempts,
		}, nil
	})
	if err != nil {
		return Result{}, err
	}

	tab := tablefmt.New("Config", "σ1", "σ2", "W", "T analytic", "T simulated", "±CI95", "E analytic", "E simulated", "±CI95", "attempts")
	worstT, worstE := 0.0, 0.0
	for _, r := range rows {
		tab.AddRowValues(r.config, r.s1, r.s2, math.Floor(r.w),
			r.analyticT, r.simT, r.ciT, r.analyticE, r.simE, r.ciE, r.attempts)
		worstT = math.Max(worstT, math.Abs(r.simT-r.analyticT)/r.analyticT)
		worstE = math.Max(worstE, math.Abs(r.simE-r.analyticE)/r.analyticE)
	}
	return Result{
		ID:    "validate-montecarlo",
		Title: "Monte-Carlo validation (λ×50, ρ=3 optimum)",
		Tables: []RenderedTable{{
			Caption: fmt.Sprintf("Simulated vs analytical pattern expectations (%d replications per config)", o.Replications),
			Table:   tab,
		}},
		Notes: []string{
			fmt.Sprintf("worst relative deviation: time %.3g, energy %.3g", worstT, worstE),
		},
	}, nil
}

func runValidateCombined(o Options) (Result, error) {
	o = o.normalize()
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	p.Lambda *= 100
	fractions := []float64{0.2, 0.5, 0.8}
	type row struct {
		f               float64
		analytic, simT  float64
		printed         float64
		ci              float64
		analyticE, simE float64
		ciE             float64
	}
	rows, err := parallelMap(fractions, o.Workers, func(i int, f float64) (row, error) {
		cp := p.Split(f)
		plan := engine.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8}
		costs := engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: cp.LambdaS, LambdaF: cp.LambdaF}
		model := energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio}
		rng := rngx.NewStream(o.Seed, fmt.Sprintf("validate-combined/%g", f))
		est, err := replicatePattern(plan, costs, model, rng, o.Replications)
		if err != nil {
			return row{}, err
		}
		return row{
			f:        f,
			analytic: cp.ExpectedTimeCombined(plan.W, plan.Sigma1, plan.Sigma2),
			printed:  cp.ExpectedTimeCombinedClosedForm(plan.W, plan.Sigma1, plan.Sigma2),
			simT:     est.Time.Mean, ci: est.Time.CI95,
			analyticE: cp.ExpectedEnergyCombined(plan.W, plan.Sigma1, plan.Sigma2),
			simE:      est.Energy.Mean, ciE: est.Energy.CI95,
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	tab := tablefmt.New("fail-stop fraction f", "T recursion", "T printed Prop.4", "T simulated", "±CI95", "E recursion", "E simulated", "±CI95")
	for _, r := range rows {
		tab.AddRowValues(r.f, r.analytic, r.printed, r.simT, r.ci, r.analyticE, r.simE, r.ciE)
	}
	return Result{
		ID:    "validate-combined",
		Title: "Combined fail-stop + silent validation (Hera/XScale, λ×100, W=2764, σ=(0.4,0.8))",
		Tables: []RenderedTable{{
			Caption: "Simulation sides with the Equation (8) recursion; the printed Proposition 4 exceeds it by one re-executed verification",
			Table:   tab,
		}},
	}, nil
}
