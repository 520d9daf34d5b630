// Package stats provides the online statistics used by the Monte-Carlo
// validation experiments: Welford moment accumulation, normal-theory
// confidence intervals, quantiles, and fixed-bin histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates count, mean and variance in one pass with the
// numerically stable Welford recurrence. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += float64(delta * (x - w.mean))
}

// AddAll folds a slice of observations.
func (w *Welford) AddAll(xs []float64) {
	for _, x := range xs {
		w.Add(x)
	}
}

// Merge combines another accumulator into w using Chan et al.'s parallel
// update, so per-worker accumulators can be reduced deterministically.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	delta := o.mean - w.mean
	total := w.n + o.n
	w.mean += delta * float64(o.n) / float64(total)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(total)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = total
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or NaN when empty.
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased sample variance, or NaN for n < 2.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation, or NaN for n < 2.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean, or NaN for n < 2.
func (w *Welford) StdErr() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// Min returns the smallest observation, or NaN when empty.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation, or NaN when empty.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// CI returns the half-width of a normal-theory confidence interval around
// the mean at the given confidence level (e.g. 0.95). For the sample
// sizes the validation suite uses (≥ 10⁴) the normal approximation is
// indistinguishable from Student's t.
func (w *Welford) CI(level float64) float64 {
	if w.n < 2 {
		return math.NaN()
	}
	z := zQuantile((1 + level) / 2)
	return z * w.StdErr()
}

// Summary is a value snapshot of a Welford accumulator, convenient for
// embedding in experiment results.
type Summary struct {
	N      int64
	Mean   float64
	StdDev float64
	StdErr float64
	Min    float64
	Max    float64
	CI95   float64
}

// Summarize snapshots the accumulator.
func (w *Welford) Summarize() Summary {
	return Summary{
		N:      w.n,
		Mean:   w.Mean(),
		StdDev: w.StdDev(),
		StdErr: w.StdErr(),
		Min:    w.Min(),
		Max:    w.Max(),
		CI95:   w.CI(0.95),
	}
}

// String formats the summary as "mean ± ci95 (n=…)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.3g (n=%d)", s.Mean, s.CI95, s.N)
}

// zQuantile returns the standard normal quantile via the Acklam rational
// approximation (relative error < 1.15e-9 over (0,1)).
func zQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [6]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01, 1}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [5]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00, 1}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return horner(q, c[:]...) / horner(q, d[:]...)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return horner(r, a[:]...) * q / horner(r, b[:]...)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -horner(q, c[:]...) / horner(q, d[:]...)
	}
}

// horner evaluates the polynomial with coefficients cs, highest degree
// first, at x in Horner's order. Each product is rounded before its add
// (float64), so no target fuses the two into one multiply-add.
func horner(x float64, cs ...float64) float64 {
	s := cs[0]
	for _, c := range cs[1:] {
		s = float64(s*x) + c
	}
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R default). The
// input is not modified. It panics on an empty slice or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile level outside [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Histogram is a fixed-bin histogram over [Lo, Hi); values outside the
// range are counted in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Bins   []int64
	Under  int64
	Over   int64
	n      int64
}

// NewHistogram creates a histogram with nbins equal-width bins on [lo,hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if !(lo < hi) || nbins < 1 {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int64, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Bins)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i == len(h.Bins) { // guard FP edge at x≈Hi
			i--
		}
		h.Bins[i]++
	}
}

// N returns the total number of observations including out-of-range ones.
func (h *Histogram) N() int64 { return h.n }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + float64((float64(i)+0.5)*width)
}

// Quantile reads the q-th quantile (0 ≤ q ≤ 1) off the cumulative bin
// counts: the center of the first bin whose cumulative count reaches
// ⌈q·N⌉ (at least 1). Observations below Lo resolve to Lo, above Hi to
// Hi — the histogram cannot localize them further. It returns NaN on an
// empty histogram and panics on q outside [0,1].
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile level outside [0,1]")
	}
	total := h.n
	if total == 0 {
		return math.NaN()
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	cum := h.Under
	if cum >= target {
		return h.Lo
	}
	for i, c := range h.Bins {
		cum += c
		if cum >= target {
			return h.BinCenter(i)
		}
	}
	return h.Hi
}

// Mode returns the center of the most populated bin.
func (h *Histogram) Mode() float64 {
	best := 0
	for i, c := range h.Bins {
		if c > h.Bins[best] {
			best = i
		}
	}
	return h.BinCenter(best)
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It is used to fit the log-log scaling law of Theorem 2 (the λ^{-2/3}
// exponent). It panics when len(x) != len(y) or fewer than two points.
func LinearFit(x, y []float64) (slope, intercept float64) {
	if len(x) != len(y) || len(x) < 2 {
		panic("stats: LinearFit needs two equal-length series of ≥ 2 points")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += float64(x[i] * x[i])
		sxy += float64(x[i] * y[i])
	}
	denom := float64(n*sxx) - float64(sx*sx)
	if denom == 0 {
		panic("stats: degenerate x values in LinearFit")
	}
	slope = (float64(n*sxy) - float64(sx*sy)) / denom
	intercept = (sy - float64(slope*sx)) / n
	return slope, intercept
}
