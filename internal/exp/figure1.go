package exp

import (
	"fmt"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/platform"
	"respeed/internal/rngx"
	"respeed/internal/tablefmt"
	"respeed/internal/trace"
	"respeed/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "figure-1-traces",
		Title: "Figure 1: the three pattern schedules, reproduced as executed traces",
		Paper: "Figure 1 (error-free / fail-stop / silent-error pattern anatomy)",
		Run:   runFigure1,
	})
	register(Experiment{
		ID:    "waste-breakdown",
		Title: "Where the time goes: waste breakdown of full-stack executions per configuration",
		Paper: "beyond-paper: the classical waste decomposition measured on traces",
		Run:   runWasteBreakdown,
	})
}

// findPatternTrace runs traced patterns until one matches the wanted
// error signature (silent/failstop counts), returning its rendered
// schedule. The search is deterministic in seed.
func findPatternTrace(costs engine.Costs, model energy.Model, plan engine.Plan, seed uint64,
	want func(engine.PatternResult) bool) (string, error) {
	for attempt := uint64(0); attempt < 200; attempt++ {
		rec := trace.New(0)
		s, err := patternEngine(plan, costs, model, rngx.NewStream(seed+attempt, "figure1"), rec)
		if err != nil {
			return "", err
		}
		r := s.RunPattern()
		if want(r) {
			if err := trace.Validate(rec.Events()); err != nil {
				return "", fmt.Errorf("exp: figure-1 trace invalid: %w", err)
			}
			return rec.Render() + trace.Gantt(rec.Events(), 76), nil
		}
	}
	return "", fmt.Errorf("exp: no pattern with the requested signature in 200 seeds")
}

func runFigure1(o Options) (Result, error) {
	o = o.normalize()
	cfg, _ := platform.ByName("Hera/XScale")
	p := core.FromConfig(cfg)
	model := energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio}
	plan := engine.Plan{W: 2764, Sigma1: 0.4, Sigma2: 0.8} // σ2 = 2σ1 as drawn

	res := Result{ID: "figure-1-traces", Title: "Pattern anatomy (W=2764, σ1=0.4, σ2=0.8)"}

	// (a) Without error.
	clean := engine.Costs{C: p.C, V: p.V, R: p.R}
	tr, err := findPatternTrace(clean, model, plan, o.Seed, func(r engine.PatternResult) bool {
		return r.Attempts == 1
	})
	if err != nil {
		return res, err
	}
	res.Notes = append(res.Notes, "(a) without error:\n"+tr)

	// (b) With a fail-stop error: execution stops mid-pattern, recovery,
	// re-execution at σ2.
	fs := clean
	fs.LambdaF = 2e-4
	tr, err = findPatternTrace(fs, model, plan, o.Seed, func(r engine.PatternResult) bool {
		return r.FailStopErrors == 1 && r.Attempts == 2
	})
	if err != nil {
		return res, err
	}
	res.Notes = append(res.Notes, "(b) with a fail-stop error:\n"+tr)

	// (c) With a silent error: detected only by the verification at the
	// end of the pattern.
	se := clean
	se.LambdaS = 2e-4
	tr, err = findPatternTrace(se, model, plan, o.Seed, func(r engine.PatternResult) bool {
		return r.SilentErrors == 1 && r.Attempts == 2
	})
	if err != nil {
		return res, err
	}
	res.Notes = append(res.Notes, "(c) with a silent error:\n"+tr)
	return res, nil
}

// runWasteBreakdown executes the full stack at each configuration's ρ=3
// optimum (scaled work, boosted λ) and tabulates the trace-level waste
// decomposition.
func runWasteBreakdown(o Options) (Result, error) {
	o = o.normalize()
	tab := tablefmt.New("Config", "makespan [s]", "useful", "reexec", "lost", "verify", "ckpt", "recovery", "efficiency")
	for _, cfg := range platform.Configs() {
		p := core.FromConfig(cfg)
		p.Lambda *= 50
		sol, err := p.Solve(cfg.Processor.Speeds, defaultRho)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		b := sol.Best
		rec := trace.New(0)
		sc := engine.Scenario{
			Plan:      engine.Plan{W: b.W, Sigma1: b.Sigma1, Sigma2: b.Sigma2},
			Costs:     engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda},
			Model:     energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio},
			TotalWork: b.W * 40, // 40 patterns
			Trace:     rec,
			NewWorkload: func() *engine.Runner {
				return engine.FromWorkload(workload.NewStream(o.Seed, 16))
			},
		}
		if _, err := sc.RunOn(rngx.NewStream(o.Seed, "waste/"+cfg.Name())); err != nil {
			return Result{}, fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		w, err := trace.Analyze(rec.Events())
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		pct := func(x float64) string { return fmt.Sprintf("%.1f%%", 100*w.Fraction(x)) }
		tab.AddRowValues(cfg.Name(), w.Total,
			pct(w.UsefulCompute), pct(w.ReexecCompute), pct(w.LostCompute),
			pct(w.Verify), pct(w.Checkpoint), pct(w.Recovery),
			fmt.Sprintf("%.3f", w.Efficiency()))
	}
	return Result{
		ID:    "waste-breakdown",
		Title: "Waste decomposition at the ρ=3 optimum (λ×50, 40 patterns per config)",
		Tables: []RenderedTable{{
			Caption: "Fractions of the traced makespan by activity",
			Table:   tab,
		}},
	}, nil
}
