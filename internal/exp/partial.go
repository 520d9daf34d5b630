package exp

import (
	"fmt"
	"math"

	"respeed/internal/core"
	"respeed/internal/mathx"
	"respeed/internal/platform"
	"respeed/internal/tablefmt"
)

func init() {
	register(Experiment{
		ID:    "partial-verification",
		Title: "Extension: intermediate partial verifications inside the pattern",
		Paper: "related work the paper builds on ([4,10]): partial verifications at lower cost",
		Run:   runPartialVerification,
	})
}

// runPartialVerification studies the intermediate-verification extension
// on Hera/XScale: how many segments the optimal pattern uses as the
// error rate grows, and what the extension saves over the base pattern.
func runPartialVerification(o Options) (Result, error) {
	o = o.normalize()
	cfg, _ := platform.ByName("Hera/XScale")
	base := core.FromConfig(cfg)
	tpl := core.PartialPattern{Recall: 0.9, PartialCost: base.V / 10}
	const s1, s2, rho = 0.6, 0.6, 3.0

	lambdas := mathx.Logspace(1e-6, 1e-3, 13)
	type row struct {
		lambda float64
		bestM  int
		w      float64
		eExt   float64
		eBase  float64
		saving float64
		baseOK bool
	}
	rows, err := parallelMap(lambdas, o.Workers, func(i int, l float64) (row, error) {
		p := base
		p.Lambda = l
		r := row{lambda: l}
		sol, err := p.OptimalSegments(tpl, s1, s2, rho, 24)
		if err != nil {
			return r, nil // infeasible even with checks: report empty row
		}
		r.bestM = sol.Pattern.Segments
		r.w = sol.W
		r.eExt = sol.EnergyOverhead

		one := tpl
		one.Segments = 1
		if baseSol, err := p.OptimalSegments(one, s1, s2, rho, 1); err == nil {
			r.baseOK = true
			r.eBase = baseSol.EnergyOverhead
			r.saving = (r.eBase - r.eExt) / r.eBase
		}
		return r, nil
	})
	if err != nil {
		return Result{}, err
	}

	tab := tablefmt.New("λ", "optimal m", "Wopt", "E/W with partial checks", "E/W base pattern", "saving")
	var maxSaving float64
	var atLambda float64 = math.NaN()
	for _, r := range rows {
		if r.bestM == 0 {
			tab.AddRowValues(r.lambda, "-", "-", "-", "-", "-")
			continue
		}
		baseCell := "-"
		savingCell := "-"
		if r.baseOK {
			baseCell = tablefmt.Cell(r.eBase)
			savingCell = fmt.Sprintf("%.2f%%", 100*r.saving)
			if r.saving > maxSaving {
				maxSaving, atLambda = r.saving, r.lambda
			}
		}
		tab.AddRowValues(r.lambda, r.bestM, math.Floor(r.w), r.eExt, baseCell, savingCell)
	}
	return Result{
		ID:    "partial-verification",
		Title: "Partial verifications (Hera/XScale, σ=(0.6,0.6), recall 0.9, cost V/10, ρ=3)",
		Tables: []RenderedTable{{
			Caption: "Optimal segment count and energy saving of intermediate partial verifications vs the base pattern",
			Table:   tab,
		}},
		Notes: []string{fmt.Sprintf("max saving from partial checks: %.2f%% at λ=%.3g", 100*maxSaving, atLambda)},
	}, nil
}
