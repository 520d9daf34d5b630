package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOneMinusExpNegSmall(t *testing.T) {
	// For tiny x, 1 - e^-x ≈ x - x²/2; the naive form loses precision.
	for _, x := range []float64{1e-15, 1e-12, 1e-9, 1e-6, 1e-3} {
		got := OneMinusExpNeg(x)
		want := x - x*x/2 + x*x*x/6
		if !ApproxEqual(got, want, 1e-9, 0) {
			t.Errorf("OneMinusExpNeg(%g) = %g, want ≈ %g", x, got, want)
		}
	}
}

func TestOneMinusExpNegLarge(t *testing.T) {
	if got := OneMinusExpNeg(100); got != 1 {
		t.Errorf("OneMinusExpNeg(100) = %g, want 1", got)
	}
	if got := OneMinusExpNeg(0); got != 0 {
		t.Errorf("OneMinusExpNeg(0) = %g, want 0", got)
	}
}

func TestOneMinusExpNegProbabilityRange(t *testing.T) {
	// Property: result is a probability for non-negative inputs.
	f := func(x float64) bool {
		x = math.Abs(x)
		p := OneMinusExpNeg(x)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpm1Identity(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 10)
		if math.IsNaN(x) {
			return true
		}
		// exp(x)-1 and expm1 agree whenever exp is well conditioned.
		a := Expm1(x)
		b := math.Exp(x) - 1
		return ApproxEqual(a, b, 1e-9, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 10, 0},
		{10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampPanicsOnReversedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Clamp(0, 1, 0) should panic")
		}
	}()
	Clamp(0, 1, 0)
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, 1e-9, 0) {
		t.Error("nearby values should be approx-equal")
	}
	if ApproxEqual(1.0, 1.1, 1e-9, 0) {
		t.Error("distant values should not be approx-equal")
	}
	if ApproxEqual(math.NaN(), math.NaN(), 1, 1) {
		t.Error("NaN never approx-equals anything")
	}
	if !ApproxEqual(math.Inf(1), math.Inf(1), 0, 0) {
		t.Error("equal infinities are equal")
	}
	if !ApproxEqual(0, 1e-15, 0, 1e-12) {
		t.Error("absolute tolerance should cover near-zero")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(0, 0); got != 0 {
		t.Errorf("RelErr(0,0) = %g", got)
	}
	if got := RelErr(100, 101); math.Abs(got-1.0/101) > 1e-12 {
		t.Errorf("RelErr(100,101) = %g", got)
	}
	// Symmetry property.
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		return RelErr(a, b) == RelErr(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSumCompensated(t *testing.T) {
	// 1 + 1e16 - 1e16 loses the 1 under naive summation order.
	xs := []float64{1, 1e16, -1e16}
	if got := Sum(xs); got != 1 {
		t.Errorf("Sum = %g, want 1", got)
	}
}

func TestSumManySmall(t *testing.T) {
	xs := make([]float64, 1_000_000)
	for i := range xs {
		xs[i] = 0.1
	}
	got := Sum(xs)
	if math.Abs(got-100000) > 1e-6 {
		t.Errorf("Sum of 1e6 × 0.1 = %.12f, want 100000", got)
	}
}

func TestAccumulatorMatchesSum(t *testing.T) {
	xs := []float64{1e-9, 1e9, -1e9, 3.5, -2.25, 1e-9}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	if got, want := acc.Total(), Sum(xs); got != want {
		t.Errorf("Accumulator.Total = %g, Sum = %g", got, want)
	}
	if acc.Count() != int64(len(xs)) {
		t.Errorf("Count = %d, want %d", acc.Count(), len(xs))
	}
	acc.Reset()
	if acc.Total() != 0 || acc.Count() != 0 {
		t.Error("Reset did not clear the accumulator")
	}
}

func TestLinspace(t *testing.T) {
	xs := Linspace(0, 10, 11)
	if len(xs) != 11 {
		t.Fatalf("len = %d", len(xs))
	}
	if xs[0] != 0 || xs[10] != 10 {
		t.Errorf("endpoints %g..%g", xs[0], xs[10])
	}
	for i := 1; i < len(xs); i++ {
		if math.Abs(xs[i]-xs[i-1]-1) > 1e-12 {
			t.Errorf("step at %d: %g", i, xs[i]-xs[i-1])
		}
	}
}

func TestLogspace(t *testing.T) {
	xs := Logspace(1e-6, 1e-2, 5)
	if xs[0] != 1e-6 || xs[4] != 1e-2 {
		t.Errorf("endpoints %g..%g", xs[0], xs[4])
	}
	for i := 1; i < len(xs); i++ {
		ratio := xs[i] / xs[i-1]
		if math.Abs(ratio-10) > 1e-9 {
			t.Errorf("ratio at %d: %g, want 10", i, ratio)
		}
	}
}

func TestLinspacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Linspace with n=1 should panic")
		}
	}()
	Linspace(0, 1, 1)
}

func TestLogspacePanicsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Logspace with lo=0 should panic")
		}
	}()
	Logspace(0, 1, 3)
}

func TestDerivative(t *testing.T) {
	// d/dx x³ = 3x² at x=2 → 12.
	got := Derivative(func(x float64) float64 { return x * x * x }, 2)
	if math.Abs(got-12) > 1e-4 {
		t.Errorf("Derivative = %g, want 12", got)
	}
}
