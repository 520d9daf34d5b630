package exp

import (
	"fmt"
	"math"

	"respeed/internal/core"
	"respeed/internal/mathx"
	"respeed/internal/stats"
	"respeed/internal/tablefmt"
)

func init() {
	register(Experiment{
		ID:    "theorem2-scaling",
		Title: "Theorem 2: Wopt ∝ λ^{-2/3} for fail-stop errors with σ2 = 2σ1",
		Paper: "Section 5.3, Theorem 2",
		Run:   runTheorem2,
	})
	register(Experiment{
		ID:    "validity-window",
		Title: "Section 5.2: the σ2/σ1 window where the first-order approximation is valid",
		Paper: "Section 5.2",
		Run:   runValidityWindow,
	})
}

// runTheorem2 sweeps λ, minimizes the *exact* fail-stop time overhead
// numerically for σ2 = 2σ1, and fits the log-log slope — the paper's
// striking λ^{-2/3} law — against the Young/Daly λ^{-1/2} baseline at
// σ2 = σ1.
func runTheorem2(o Options) (Result, error) {
	o = o.normalize()
	const c, r, sigma = 300.0, 300.0, 0.5
	lambdas := mathx.Logspace(1e-7, 1e-3, o.Points)

	type point struct {
		exact2x, thm2, exact1x, young float64
	}
	vals, err := parallelMap(lambdas, o.Workers, func(i int, l float64) (point, error) {
		fp := core.FailStopParams{Lambda: l, C: c, R: r}
		w2x, err := mathx.MinimizeConvex1D(func(w float64) float64 {
			return fp.ExactTimeFailStop(w, sigma, 2*sigma) / w
		}, fp.Theorem2W(sigma), 1e-9)
		if err != nil {
			return point{}, err
		}
		w1x, err := mathx.MinimizeConvex1D(func(w float64) float64 {
			return fp.ExactTimeFailStop(w, sigma, sigma) / w
		}, fp.YoungDalyW(sigma), 1e-9)
		if err != nil {
			return point{}, err
		}
		return point{
			exact2x: w2x, thm2: fp.Theorem2W(sigma),
			exact1x: w1x, young: fp.YoungDalyW(sigma),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}

	series := func(f func(point) float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = f(v)
		}
		return out
	}
	exact2x := series(func(p point) float64 { return p.exact2x })
	thm2 := series(func(p point) float64 { return p.thm2 })
	exact1x := series(func(p point) float64 { return p.exact1x })
	young := series(func(p point) float64 { return p.young })

	logOf := func(ys []float64) []float64 {
		out := make([]float64, len(ys))
		for i, y := range ys {
			out[i] = math.Log(y)
		}
		return out
	}
	lx := logOf(lambdas)
	slope2x, _ := stats.LinearFit(lx, logOf(exact2x))
	slope1x, _ := stats.LinearFit(lx, logOf(exact1x))

	tab := tablefmt.New("λ", "Wopt exact (σ2=2σ1)", "(12C/λ²)^⅓·σ", "Wopt exact (σ2=σ1)", "Young σ√(2C/λ)")
	for i, l := range lambdas {
		if i%5 == 0 || i == len(lambdas)-1 {
			tab.AddRowValues(l, exact2x[i], thm2[i], exact1x[i], young[i])
		}
	}

	return Result{
		ID:    "theorem2-scaling",
		Title: "Theorem 2 checkpointing law",
		Tables: []RenderedTable{{
			Caption: "Exact-model optima vs closed forms (fail-stop only, C=R=300, σ=0.5)",
			Table:   tab,
		}},
		Figures: []FigureData{{
			Name: "theorem2-wopt", XLabel: "lambda", LogX: true, X: lambdas,
			Series: []tablefmt.Series{
				{Name: "exact 2x", Y: exact2x},
				{Name: "theorem2", Y: thm2},
				{Name: "exact 1x", Y: exact1x},
				{Name: "young", Y: young},
			},
		}},
		Notes: []string{
			fmt.Sprintf("fitted log-log slope at σ2=2σ1: %.4f (Theorem 2 predicts -2/3 ≈ -0.6667)", slope2x),
			fmt.Sprintf("fitted log-log slope at σ2=σ1:  %.4f (Young/Daly predicts -1/2)", slope1x),
		},
	}, nil
}

// runValidityWindow tabulates the Section 5.2 admissible σ2/σ1 interval
// as the fail-stop fraction varies, and marks which catalog speed pairs
// fall inside it.
func runValidityWindow(o Options) (Result, error) {
	fracs := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	base := core.Params{Lambda: 1e-5, C: 300, V: 15.4, R: 300, Kappa: 1550, Pidle: 60, Pio: 5.23}
	tab := tablefmt.New("f (fail-stop fraction)", "ratio lower bound", "ratio upper bound")
	for _, f := range fracs {
		lo, hi := base.Split(f).SpeedRatioWindow()
		tab.AddRowValues(f, lo, hi)
	}

	// Which XScale pairs survive at f = 1 (pure fail-stop)?
	cp := base.Split(1)
	speeds := []float64{0.15, 0.4, 0.6, 0.8, 1}
	inside, outside := 0, 0
	pairTab := tablefmt.New("σ1", "σ2", "σ2/σ1", "first-order valid")
	for _, s1 := range speeds {
		for _, s2 := range speeds {
			lo, hi := cp.SpeedRatioWindow()
			ratio := s2 / s1
			ok := ratio > lo && ratio < hi
			if ok {
				inside++
			} else {
				outside++
			}
			pairTab.AddRowValues(s1, s2, ratio, fmt.Sprintf("%v", ok))
		}
	}
	return Result{
		ID:    "validity-window",
		Title: "First-order validity window",
		Tables: []RenderedTable{
			{Caption: "Admissible σ2/σ1 interval (2(1+s/f))^{-1/2} < σ2/σ1 < 2(1+s/f)", Table: tab},
			{Caption: "XScale speed pairs against the f=1 window", Table: pairTab},
		},
		Notes: []string{fmt.Sprintf("XScale pairs at f=1: %d inside the window, %d outside", inside, outside)},
	}, nil
}
