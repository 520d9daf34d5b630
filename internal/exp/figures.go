package exp

import (
	"fmt"
	"math"
	"strings"

	"respeed/internal/core"
	"respeed/internal/mathx"
	"respeed/internal/platform"
	"respeed/internal/tablefmt"
)

// sweepParam identifies which model parameter a figure panel sweeps.
type sweepParam string

// The six swept parameters of Figures 2–14.
const (
	sweepC     sweepParam = "C"
	sweepV     sweepParam = "V"
	sweepLam   sweepParam = "lambda"
	sweepRho   sweepParam = "rho"
	sweepPidle sweepParam = "Pidle"
	sweepPio   sweepParam = "Pio"
)

// defaultRho is the performance bound used everywhere a figure does not
// sweep ρ itself (paper §4.1).
const defaultRho = 3.0

// figurePoint is the optimal solution at one swept value.
type figurePoint struct {
	s1, s2, w2, e2 float64 // two-speed optimum
	s, w1, e1      float64 // single-speed optimum
	ok2, ok1       bool
}

// applyParam returns (params, rho) with the swept parameter overridden.
// R tracks C (the paper sets R = C and sweeps them together).
func applyParam(base core.Params, param sweepParam, x float64) (core.Params, float64) {
	p, rho := base, defaultRho
	switch param {
	case sweepC:
		p.C, p.R = x, x
	case sweepV:
		p.V = x
	case sweepLam:
		p.Lambda = x
	case sweepRho:
		rho = x
	case sweepPidle:
		p.Pidle = x
	case sweepPio:
		p.Pio = x
	default:
		panic("exp: unknown sweep parameter " + string(param))
	}
	return p, rho
}

// sweepValues returns the swept axis for a parameter, matching the
// paper's panel ranges.
func sweepValues(cfg platform.Config, param sweepParam, points int) (xs []float64, logX bool) {
	switch param {
	case sweepC, sweepV, sweepPidle, sweepPio:
		// 0 is a legitimate endpoint for all four (c = C + V/σ1 stays
		// positive as long as not both are zero; the catalog guarantees
		// that).
		return mathx.Linspace(0, 5000, points), false
	case sweepLam:
		hi := 1e-2
		if strings.HasPrefix(cfg.Platform.Name, "Coastal") {
			hi = 1e-3 // the paper plots Coastal panels to 10⁻³ only
		}
		return mathx.Logspace(1e-6, hi, points), true
	case sweepRho:
		return mathx.Linspace(1.0, 3.5, points), false
	default:
		panic("exp: unknown sweep parameter " + string(param))
	}
}

// evalPoint solves both the two-speed and single-speed problems at one
// swept value.
func evalPoint(base core.Params, speeds []float64, param sweepParam, x float64) figurePoint {
	p, rho := applyParam(base, param, x)
	var pt figurePoint
	if two, err := p.Solve(speeds, rho); err == nil {
		pt.ok2 = true
		pt.s1, pt.s2 = two.Best.Sigma1, two.Best.Sigma2
		pt.w2, pt.e2 = two.Best.W, two.Best.EnergyOverhead
	}
	if one, err := p.SolveSingleSpeed(speeds, rho); err == nil {
		pt.ok1 = true
		pt.s = one.Best.Sigma1
		pt.w1, pt.e1 = one.Best.W, one.Best.EnergyOverhead
	}
	return pt
}

// runParamSweep produces the three panels of one figure row: speeds,
// optimal W, and energy overhead, two-speed vs single-speed.
func runParamSweep(cfg platform.Config, param sweepParam, o Options, figName string) ([]FigureData, []string, error) {
	base := core.FromConfig(cfg)
	speeds := cfg.Processor.Speeds
	xs, logX := sweepValues(cfg, param, o.Points)
	vals, err := parallelMap(xs, o.Workers, func(i int, x float64) (figurePoint, error) {
		return evalPoint(base, speeds, param, x), nil
	})
	if err != nil {
		return nil, nil, err
	}

	pick := func(f func(figurePoint) (float64, bool)) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			y, ok := f(v)
			if !ok {
				y = math.NaN()
			}
			out[i] = y
		}
		return out
	}
	s1 := pick(func(v figurePoint) (float64, bool) { return v.s1, v.ok2 })
	s2 := pick(func(v figurePoint) (float64, bool) { return v.s2, v.ok2 })
	sg := pick(func(v figurePoint) (float64, bool) { return v.s, v.ok1 })
	w2 := pick(func(v figurePoint) (float64, bool) { return v.w2, v.ok2 })
	w1 := pick(func(v figurePoint) (float64, bool) { return v.w1, v.ok1 })
	e2 := pick(func(v figurePoint) (float64, bool) { return v.e2, v.ok2 })
	e1 := pick(func(v figurePoint) (float64, bool) { return v.e1, v.ok1 })

	xlabel := string(param)
	figures := []FigureData{
		{
			Name: figName + "-speeds", XLabel: xlabel, LogX: logX, X: xs,
			Series: []tablefmt.Series{
				{Name: "sigma1", Y: s1}, {Name: "sigma2", Y: s2}, {Name: "sigma-single", Y: sg},
			},
		},
		{
			Name: figName + "-wopt", XLabel: xlabel, LogX: logX, X: xs,
			Series: []tablefmt.Series{
				{Name: "Wopt(s1,s2)", Y: w2}, {Name: "Wopt(s,s)", Y: w1},
			},
		},
		{
			Name: figName + "-energy", XLabel: xlabel, LogX: logX, X: xs,
			Series: []tablefmt.Series{
				{Name: "E/W two-speed", Y: e2}, {Name: "E/W one-speed", Y: e1},
			},
		},
	}

	// Headline note: the maximum two-speed saving across the sweep.
	maxGain, atX := 0.0, math.NaN()
	for i, v := range vals {
		if v.ok1 && v.ok2 && v.e1 > 0 {
			g := (v.e1 - v.e2) / v.e1
			if g > maxGain {
				maxGain, atX = g, xs[i]
			}
		}
	}
	notes := []string{fmt.Sprintf("%s %s-sweep: max two-speed energy saving %.1f%% at %s=%g",
		cfg.Name(), param, 100*maxGain, param, atX)}
	return figures, notes, nil
}

// figureSpec declares one of the paper's figures.
type figureSpec struct {
	num    int
	config string
	params []sweepParam
}

// allParams is the six-parameter suite of Figures 8–14.
var allParams = []sweepParam{sweepC, sweepV, sweepLam, sweepRho, sweepPidle, sweepPio}

var figureSpecs = []figureSpec{
	{2, "Atlas/Crusoe", []sweepParam{sweepC}},
	{3, "Atlas/Crusoe", []sweepParam{sweepV}},
	{4, "Atlas/Crusoe", []sweepParam{sweepLam}},
	{5, "Atlas/Crusoe", []sweepParam{sweepRho}},
	{6, "Atlas/Crusoe", []sweepParam{sweepPidle}},
	{7, "Atlas/Crusoe", []sweepParam{sweepPio}},
	{8, "Hera/XScale", allParams},
	{9, "Atlas/XScale", allParams},
	{10, "Coastal/XScale", allParams},
	{11, "Coastal SSD/XScale", allParams},
	{12, "Hera/Crusoe", allParams},
	{13, "Coastal/Crusoe", allParams},
	{14, "Coastal SSD/Crusoe", allParams},
}

func init() {
	for _, spec := range figureSpecs {
		spec := spec
		id := fmt.Sprintf("figure-%d", spec.num)
		title := fmt.Sprintf("Optimal solution vs %s (%s)", paramList(spec.params), spec.config)
		register(Experiment{
			ID:    id,
			Title: title,
			Paper: fmt.Sprintf("Figure %d", spec.num),
			Run: func(o Options) (Result, error) {
				o = o.normalize()
				cfg, ok := platform.ByName(spec.config)
				if !ok {
					return Result{}, fmt.Errorf("exp: unknown configuration %q", spec.config)
				}
				res := Result{ID: id, Title: title}
				for _, param := range spec.params {
					name := fmt.Sprintf("fig%d-%s", spec.num, param)
					figs, notes, err := runParamSweep(cfg, param, o, name)
					if err != nil {
						return res, err
					}
					res.Figures = append(res.Figures, figs...)
					res.Notes = append(res.Notes, notes...)
				}
				return res, nil
			},
		})
	}
}

func paramList(ps []sweepParam) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = string(p)
	}
	return strings.Join(names, ", ")
}
