// Package schedule turns a BiCrit solution into an executable
// application plan: it partitions the application's total work Wbase
// into patterns, predicts the end-to-end makespan and energy (the
// Ttotal ≈ (T/W)·Wbase argument of Section 2.3, refined with an exact
// final partial pattern), and emits the configuration the full-stack
// simulator runs. It is the bridge between "the paper's formula" and
// "running a job".
package schedule

import (
	"fmt"
	"math"

	"respeed/internal/core"
	"respeed/internal/energy"
	"respeed/internal/engine"
	"respeed/internal/platform"
)

// AppPlan is a complete execution plan for one application.
type AppPlan struct {
	// Config is the platform/processor pair the plan targets.
	Config platform.Config
	// Rho is the per-work-unit time bound the plan honors.
	Rho float64
	// Best is the BiCrit solution in force (speeds, W, overheads).
	Best core.PairResult
	// TotalWork is the application's Wbase in work units.
	TotalWork float64
	// FullPatterns is the number of patterns of size Best.W; LastW is the
	// trailing partial pattern's size (0 if TotalWork divides evenly).
	FullPatterns int
	LastW        float64
	// ExpectedMakespan and ExpectedEnergy are end-to-end expectations:
	// FullPatterns·T(W) + T(LastW), likewise for energy.
	ExpectedMakespan float64
	ExpectedEnergy   float64
	// ErrorFreeMakespan is the no-error lower bound, for overhead
	// accounting.
	ErrorFreeMakespan float64
}

// Plan builds an application plan: solve BiCrit at the bound, split the
// work, and accumulate exact per-pattern expectations.
func Plan(cfg platform.Config, rho, totalWork float64) (AppPlan, error) {
	if !(totalWork > 0) {
		return AppPlan{}, fmt.Errorf("schedule: total work must be positive (got %g)", totalWork)
	}
	p := core.FromConfig(cfg)
	sol, err := p.Solve(cfg.Processor.Speeds, rho)
	if err != nil {
		return AppPlan{}, fmt.Errorf("schedule: %w", err)
	}
	best := sol.Best

	full := int(totalWork / best.W)
	lastW := totalWork - float64(full)*best.W
	if lastW < 1e-9*best.W {
		lastW = 0
	}

	plan := AppPlan{
		Config: cfg, Rho: rho, Best: best, TotalWork: totalWork,
		FullPatterns: full, LastW: lastW,
	}
	tFull := p.ExpectedTime(best.W, best.Sigma1, best.Sigma2)
	eFull := p.ExpectedEnergy(best.W, best.Sigma1, best.Sigma2)
	plan.ExpectedMakespan = float64(full) * tFull
	plan.ExpectedEnergy = float64(full) * eFull
	plan.ErrorFreeMakespan = float64(full) * ((best.W+p.V)/best.Sigma1 + p.C)
	if lastW > 0 {
		plan.ExpectedMakespan += p.ExpectedTime(lastW, best.Sigma1, best.Sigma2)
		plan.ExpectedEnergy += p.ExpectedEnergy(lastW, best.Sigma1, best.Sigma2)
		plan.ErrorFreeMakespan += (lastW+p.V)/best.Sigma1 + p.C
	}
	return plan, nil
}

// Patterns returns the total number of patterns including the partial
// one.
func (ap AppPlan) Patterns() int {
	if ap.LastW > 0 {
		return ap.FullPatterns + 1
	}
	return ap.FullPatterns
}

// Overhead returns ExpectedMakespan / ErrorFreeMakespan − 1: the
// fractional time lost to errors, verification and re-execution beyond
// the error-free schedule.
func (ap AppPlan) Overhead() float64 {
	if ap.ErrorFreeMakespan == 0 {
		return 0
	}
	return ap.ExpectedMakespan/ap.ErrorFreeMakespan - 1
}

// MeetsBound reports whether the end-to-end expectation honors the
// per-work-unit bound: ExpectedMakespan ≤ ρ·TotalWork (up to the
// first-order approximation slack tol).
func (ap AppPlan) MeetsBound(tol float64) bool {
	return ap.ExpectedMakespan <= ap.Rho*ap.TotalWork*(1+tol)
}

// ExecConfig converts the plan into a full-stack scenario: the plan's
// pattern size and speeds and the catalog costs, with aggregate error
// rates. The caller supplies the workload and the stream.
func (ap AppPlan) ExecConfig() engine.Scenario {
	p := core.FromConfig(ap.Config)
	return engine.Scenario{
		Plan:      engine.Plan{W: ap.Best.W, Sigma1: ap.Best.Sigma1, Sigma2: ap.Best.Sigma2},
		Costs:     engine.Costs{C: p.C, V: p.V, R: p.R, LambdaS: p.Lambda},
		Model:     energy.Model{Kappa: p.Kappa, Pidle: p.Pidle, Pio: p.Pio},
		TotalWork: ap.TotalWork,
	}
}

// String renders the plan as a short human-readable block.
func (ap AppPlan) String() string {
	return fmt.Sprintf(
		"plan %s ρ=%g: %d×W=%.0f + last %.0f at σ=(%g,%g); E[makespan]=%.0fs E[energy]=%.3gmW·s (overhead %.2f%%)",
		ap.Config.Name(), ap.Rho, ap.FullPatterns, ap.Best.W, ap.LastW,
		ap.Best.Sigma1, ap.Best.Sigma2,
		ap.ExpectedMakespan, ap.ExpectedEnergy, 100*ap.Overhead())
}

// CompareSingleSpeed returns the end-to-end expected energy of the best
// single-speed plan for the same bound, for savings accounting. It
// returns ok=false when no single speed is feasible.
func CompareSingleSpeed(cfg platform.Config, rho, totalWork float64) (energyTotal float64, ok bool) {
	p := core.FromConfig(cfg)
	sol, err := p.SolveSingleSpeed(cfg.Processor.Speeds, rho)
	if err != nil {
		return 0, false
	}
	b := sol.Best
	full := int(totalWork / b.W)
	lastW := totalWork - float64(full)*b.W
	total := float64(full) * p.ExpectedEnergy(b.W, b.Sigma1, b.Sigma2)
	if lastW > 1e-9*b.W {
		total += p.ExpectedEnergy(lastW, b.Sigma1, b.Sigma2)
	}
	return total, true
}

// SafetyMargin computes, via Chebyshev-free Monte-Carlo-free reasoning,
// a conservative high-quantile makespan estimate: expectation times
// (1 + k·perPatternCV/sqrt(patterns)) where perPatternCV is the
// coefficient of variation of one pattern's time, estimated from the
// exact second moment of the geometric attempt count. It quantifies how
// tight the expectation-based plan is for long applications (the
// variance averages out across patterns).
func (ap AppPlan) SafetyMargin(k float64) float64 {
	p := core.FromConfig(ap.Config)
	// Per-pattern time variance upper bound: attempts are geometric with
	// success probability q = e^{−λW/σ1}-ish; each extra attempt costs at
	// most R + (W+V)/min(σ1,σ2). Var[attempts] = (1−q)/q².
	b := ap.Best
	q := math.Exp(-p.Lambda * b.W / b.Sigma1)
	attemptCost := p.R + (b.W+p.V)/math.Min(b.Sigma1, b.Sigma2)
	varT := (1 - q) / (q * q) * attemptCost * attemptCost
	meanT := p.ExpectedTime(b.W, b.Sigma1, b.Sigma2)
	cv := math.Sqrt(varT) / meanT
	n := float64(ap.Patterns())
	if n == 0 {
		return ap.ExpectedMakespan
	}
	return ap.ExpectedMakespan * (1 + k*cv/math.Sqrt(n))
}
