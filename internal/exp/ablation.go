package exp

import (
	"fmt"
	"math"

	"respeed/internal/core"
	"respeed/internal/optimize"
	"respeed/internal/platform"
	"respeed/internal/tablefmt"
)

func init() {
	register(Experiment{
		ID:    "ablation-exact-vs-firstorder",
		Title: "Ablation: Theorem 1's first-order closed form vs exact numeric optimization",
		Paper: "beyond-paper: quantifies the Taylor truncation error of Theorem 1",
		Run:   runAblationExact,
	})
	register(Experiment{
		ID:    "gains-summary",
		Title: "Two-speed energy savings across all configurations and bounds",
		Paper: "Section 4.3.5 (the up-to-35% claim)",
		Run:   runGainsSummary,
	})
}

// runAblationExact compares, for every catalog configuration at ρ=3, the
// closed-form optimum (first-order, Theorem 1) against the exact numeric
// optimum of the un-truncated expectations.
func runAblationExact(o Options) (Result, error) {
	o = o.normalize()
	type row struct {
		config               string
		s1FO, s2FO, wFO, eFO float64
		s1EX, s2EX, wEX, eEX float64
		samePair             bool
		relW, relE           float64
	}
	rows, err := parallelMap(platform.Configs(), o.Workers, func(i int, cfg platform.Config) (row, error) {
		p := core.FromConfig(cfg)
		speeds := cfg.Processor.Speeds
		fo, err := p.Solve(speeds, defaultRho)
		if err != nil {
			return row{}, err
		}
		ex, _, err := optimize.Solve(p, speeds, defaultRho)
		if err != nil {
			return row{}, err
		}
		r := row{
			config: cfg.Name(),
			s1FO:   fo.Best.Sigma1, s2FO: fo.Best.Sigma2, wFO: fo.Best.W, eFO: fo.Best.EnergyOverhead,
			s1EX: ex.Sigma1, s2EX: ex.Sigma2, wEX: ex.W, eEX: ex.EnergyOverhead,
		}
		r.samePair = r.s1FO == r.s1EX && r.s2FO == r.s2EX
		r.relW = math.Abs(r.wFO-r.wEX) / r.wEX
		r.relE = math.Abs(r.eFO-r.eEX) / r.eEX
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}
	tab := tablefmt.New("Config", "FO pair", "FO Wopt", "FO E/W", "Exact pair", "Exact Wopt", "Exact E/W", "ΔW rel", "ΔE rel")
	agree := 0
	var worstE float64
	for _, r := range rows {
		tab.AddRowValues(r.config,
			fmt.Sprintf("(%g,%g)", r.s1FO, r.s2FO), math.Floor(r.wFO), r.eFO,
			fmt.Sprintf("(%g,%g)", r.s1EX, r.s2EX), math.Floor(r.wEX), r.eEX,
			r.relW, r.relE)
		if r.samePair {
			agree++
		}
		worstE = math.Max(worstE, r.relE)
	}
	return Result{
		ID:    "ablation-exact-vs-firstorder",
		Title: "First-order vs exact optimization at ρ=3",
		Tables: []RenderedTable{{
			Caption: "Theorem 1 closed form against exact numeric optimization of Propositions 2–3",
			Table:   tab,
		}},
		Notes: []string{
			fmt.Sprintf("speed-pair agreement: %d/%d configurations", agree, len(rows)),
			fmt.Sprintf("worst energy-overhead deviation: %.3g", worstE),
		},
	}, nil
}

// runGainsSummary tabulates the best two-speed saving per configuration
// over a grid of performance bounds — the quantitative backing for the
// paper's "up to 35%" headline.
func runGainsSummary(o Options) (Result, error) {
	o = o.normalize()
	rhos := []float64{1.2, 1.4, 1.6, 1.775, 2.0, 2.5, 3.0, 5.0, 8.0}
	type row struct {
		config  string
		gains   []float64 // aligned with rhos; NaN when two-speed infeasible
		maxGain float64
		atRho   float64
	}
	rows, err := parallelMap(platform.Configs(), o.Workers, func(i int, cfg platform.Config) (row, error) {
		p := core.FromConfig(cfg)
		speeds := cfg.Processor.Speeds
		r := row{config: cfg.Name(), gains: make([]float64, len(rhos)), atRho: math.NaN()}
		for j, rho := range rhos {
			g, err := p.TwoSpeedGain(speeds, rho)
			if err != nil {
				r.gains[j] = math.NaN()
				continue
			}
			r.gains[j] = g
			if g > r.maxGain {
				r.maxGain, r.atRho = g, rho
			}
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}
	headers := []string{"Config"}
	for _, rho := range rhos {
		headers = append(headers, fmt.Sprintf("ρ=%g", rho))
	}
	headers = append(headers, "max")
	tab := tablefmt.New(headers...)
	var globalMax float64
	globalCfg := ""
	for _, r := range rows {
		cells := []any{r.config}
		for _, g := range r.gains {
			if math.IsNaN(g) {
				cells = append(cells, "-")
			} else {
				cells = append(cells, fmt.Sprintf("%.1f%%", 100*g))
			}
		}
		cells = append(cells, fmt.Sprintf("%.1f%% @ρ=%g", 100*r.maxGain, r.atRho))
		tab.AddRowValues(cells...)
		if r.maxGain > globalMax {
			globalMax, globalCfg = r.maxGain, r.config
		}
	}
	return Result{
		ID:    "gains-summary",
		Title: "Two-speed energy savings (E1−E2)/E1 by configuration and ρ",
		Tables: []RenderedTable{{
			Caption: "Relative energy saving of the two-speed optimum over the single-speed optimum; '-' = infeasible bound",
			Table:   tab,
		}},
		Notes: []string{fmt.Sprintf("largest saving: %.1f%% on %s", 100*globalMax, globalCfg)},
	}, nil
}
