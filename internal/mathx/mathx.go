// Package mathx provides the numerical substrate used throughout respeed:
// numerically stable exponential compositions, compensated summation,
// polynomial root solving, derivative-free root finding and minimization.
//
// Everything in this package is pure (no global state) and deterministic.
// The routines are written for the regimes that the resilience model
// exercises: λW products between 1e-9 and 1e2, quadratics whose
// discriminants suffer catastrophic cancellation, and unimodal objective
// functions that must be minimized to near machine precision.
package mathx

import (
	"errors"
	"math"
)

// Common errors returned by the solvers in this package.
var (
	// ErrNoRoot indicates that a root-finding routine was asked to solve
	// an equation that has no real solution in the requested domain.
	ErrNoRoot = errors.New("mathx: no real root in domain")
	// ErrNotBracketed indicates that the supplied interval does not
	// bracket a sign change of the target function.
	ErrNotBracketed = errors.New("mathx: interval does not bracket a root")
	// ErrMaxIterations indicates an iterative method hit its iteration
	// budget before converging to the requested tolerance.
	ErrMaxIterations = errors.New("mathx: maximum iterations exceeded")
	// ErrInvalidInterval indicates a degenerate or reversed interval.
	ErrInvalidInterval = errors.New("mathx: invalid interval")
)

// Expm1 returns e^x - 1 computed without cancellation for small x.
// It is a thin named wrapper over math.Expm1 so that call sites in the
// model code read in the same vocabulary as the derivations.
func Expm1(x float64) float64 { return math.Expm1(x) }

// OneMinusExpNeg returns 1 - e^(-x), the probability that an exponential
// event with unit rate strikes within x. For the tiny λW/σ exponents that
// dominate the checkpointing regime, the naive 1-math.Exp(-x) loses all
// significant digits; -Expm1(-x) does not.
func OneMinusExpNeg(x float64) float64 { return -math.Expm1(-x) }

// ExpGrowthExcess returns e^x - 1 scaled stably; it is an alias of Expm1
// kept for readability at call sites that compute expected re-execution
// counts of the form (e^{λW/σ} - 1).
func ExpGrowthExcess(x float64) float64 { return math.Expm1(x) }

// Log1p returns log(1+x) without cancellation for small x.
func Log1p(x float64) float64 { return math.Log1p(x) }

// Clamp returns x restricted to [lo, hi]. It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic("mathx: Clamp with lo > hi")
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ApproxEqual reports whether a and b agree to within relative tolerance
// rel or absolute tolerance abs, whichever is looser. It treats NaN as
// unequal to everything and two equal infinities as equal.
func ApproxEqual(a, b, rel, abs float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= rel*scale
}

// RelErr returns |a-b| / max(|a|,|b|), or 0 when both are zero. It is the
// symmetric relative error used by the validation experiments.
func RelErr(a, b float64) float64 {
	if a == b {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// Sum computes the sum of xs with Neumaier's improved Kahan compensation.
// The resilience sweeps accumulate millions of energy increments that span
// ten orders of magnitude; naive summation visibly biases the totals.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// Accumulator is a running Neumaier-compensated sum. The zero value is an
// empty accumulator ready for use.
type Accumulator struct {
	sum  float64
	comp float64
	n    int64
}

// Add folds x into the accumulator.
func (a *Accumulator) Add(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.comp += (a.sum - t) + x
	} else {
		a.comp += (x - t) + a.sum
	}
	a.sum = t
	a.n++
}

// Total returns the compensated sum of everything added so far.
func (a *Accumulator) Total() float64 { return a.sum + a.comp }

// Count returns how many values have been added.
func (a *Accumulator) Count() int64 { return a.n }

// Reset returns the accumulator to its empty state.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// Linspace returns n points evenly spaced over [lo, hi] inclusive.
// n must be at least 2; the endpoints are exact.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// Logspace returns n points logarithmically spaced over [lo, hi]
// inclusive. Both endpoints must be positive and n at least 2.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("mathx: Logspace needs positive endpoints")
	}
	if n < 2 {
		panic("mathx: Logspace needs n >= 2")
	}
	llo, lhi := math.Log(lo), math.Log(hi)
	out := make([]float64, n)
	step := (lhi - llo) / float64(n-1)
	for i := range out {
		out[i] = math.Exp(llo + float64(i)*step)
	}
	out[0], out[n-1] = lo, hi
	return out
}

// Derivative estimates f'(x) with a central difference whose step is
// scaled to x. It is used only for sanity checks and tests, never on the
// hot path.
func Derivative(f func(float64) float64, x float64) float64 {
	h := 1e-6 * math.Max(1, math.Abs(x))
	return (f(x+h) - f(x-h)) / (2 * h)
}
