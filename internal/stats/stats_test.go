package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	// Population variance is 4; sample variance is 32/7.
	if got, want := w.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", got, want)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %g/%g", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) ||
		!math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) || !math.IsNaN(w.CI(0.95)) {
		t.Error("empty accumulator should report NaN everywhere")
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 {
		t.Errorf("Mean = %g", w.Mean())
	}
	if !math.IsNaN(w.Variance()) {
		t.Error("variance of one sample should be NaN")
	}
}

func TestWelfordMergeEqualsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1001)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	var all Welford
	all.AddAll(xs)
	var a, b Welford
	a.AddAll(xs[:400])
	b.AddAll(xs[400:])
	a.Merge(b)
	if math.Abs(a.Mean()-all.Mean()) > 1e-12 {
		t.Errorf("merged mean %g vs %g", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-9 {
		t.Errorf("merged variance %g vs %g", a.Variance(), all.Variance())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Error("merged min/max mismatch")
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var empty, full Welford
	full.AddAll([]float64{1, 2, 3})
	merged := full
	merged.Merge(empty)
	if merged.N() != 3 || merged.Mean() != 2 {
		t.Error("merging empty changed the accumulator")
	}
	var target Welford
	target.Merge(full)
	if target.N() != 3 || target.Mean() != 2 {
		t.Error("merging into empty lost data")
	}
}

func TestWelfordShiftInvariance(t *testing.T) {
	// Property: variance is invariant under translation.
	f := func(shift float64, raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		shift = math.Mod(shift, 1e6)
		var a, b Welford
		for _, x := range raw {
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) {
				return true
			}
			a.Add(x)
			b.Add(x + shift)
		}
		va, vb := a.Variance(), b.Variance()
		return math.Abs(va-vb) <= 1e-6*math.Max(1, math.Abs(va))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCIShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var small, large Welford
	for i := 0; i < 100; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.NormFloat64())
	}
	if !(large.CI(0.95) < small.CI(0.95)) {
		t.Errorf("CI did not shrink: %g vs %g", large.CI(0.95), small.CI(0.95))
	}
}

func TestCICoverage(t *testing.T) {
	// 95% CI should cover the true mean ~95% of the time.
	rng := rand.New(rand.NewSource(3))
	const trials, n, trueMean = 500, 400, 2.0
	covered := 0
	for trial := 0; trial < trials; trial++ {
		var w Welford
		for i := 0; i < n; i++ {
			w.Add(rng.NormFloat64() + trueMean)
		}
		if math.Abs(w.Mean()-trueMean) <= w.CI(0.95) {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.92 || frac > 0.98 {
		t.Errorf("CI coverage = %g, want ≈ 0.95", frac)
	}
}

func TestZQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		if got := zQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("zQuantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsInf(zQuantile(1), 1) || !math.IsInf(zQuantile(0), -1) {
		t.Error("zQuantile endpoints")
	}
	if !math.IsNaN(zQuantile(-0.5)) {
		t.Error("zQuantile(-0.5) should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Errorf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.5); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("median = %g, want 3.5", got)
	}
	// The input must not be modified.
	if xs[0] != 3 || xs[7] != 6 {
		t.Error("Quantile modified its input")
	}
}

func TestQuantileSingle(t *testing.T) {
	if got := Quantile([]float64{42}, 0.7); got != 42 {
		t.Errorf("single-element quantile = %g", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile of empty slice should panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Mod(x, 1e9))
			}
		}
		if len(xs) < 2 {
			return true
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLinearFit(t *testing.T) {
	// y = 2x + 1 exactly.
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9}
	slope, intercept := LinearFit(x, y)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Errorf("fit = %g, %g; want 2, 1", slope, intercept)
	}
}

func TestLinearFitPowerLaw(t *testing.T) {
	// Wopt = k·λ^{-2/3} in log-log space has slope -2/3.
	lambdas := []float64{1e-6, 1e-5, 1e-4, 1e-3}
	var lx, ly []float64
	for _, l := range lambdas {
		lx = append(lx, math.Log(l))
		ly = append(ly, math.Log(5.0*math.Pow(l, -2.0/3.0)))
	}
	slope, _ := LinearFit(lx, ly)
	if math.Abs(slope+2.0/3.0) > 1e-9 {
		t.Errorf("log-log slope = %g, want -2/3", slope)
	}
}

func TestSummaryString(t *testing.T) {
	var w Welford
	w.AddAll([]float64{1, 2, 3, 4, 5})
	s := w.Summarize()
	if s.N != 5 || s.Mean != 3 {
		t.Errorf("summary %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}
