package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuadraticRootsSimple(t *testing.T) {
	// x² - 3x + 2 = 0 → roots 1, 2.
	x1, x2, err := QuadraticRoots(1, -3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x1-1) > 1e-12 || math.Abs(x2-2) > 1e-12 {
		t.Errorf("roots %g, %g; want 1, 2", x1, x2)
	}
}

func TestQuadraticRootsOrdering(t *testing.T) {
	f := func(r1, r2, scale float64) bool {
		r1 = math.Mod(r1, 1e6)
		r2 = math.Mod(r2, 1e6)
		scale = 1 + math.Abs(math.Mod(scale, 10))
		// Build the quadratic scale*(x-r1)(x-r2).
		a := scale
		b := -scale * (r1 + r2)
		c := scale * r1 * r2
		x1, x2, err := QuadraticRoots(a, b, c)
		if err != nil {
			return false
		}
		return x1 <= x2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadraticRootsRoundTrip(t *testing.T) {
	// Property: reconstructed roots satisfy the equation to high accuracy.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		r1 := rng.NormFloat64() * 1e3
		r2 := rng.NormFloat64() * 1e3
		a := 1 + rng.Float64()*10
		b := -a * (r1 + r2)
		c := a * r1 * r2
		x1, x2, err := QuadraticRoots(a, b, c)
		if err != nil {
			t.Fatalf("unexpected ErrNoRoot for real roots %g, %g", r1, r2)
		}
		lo, hi := math.Min(r1, r2), math.Max(r1, r2)
		if !ApproxEqual(x1, lo, 1e-7, 1e-7) || !ApproxEqual(x2, hi, 1e-7, 1e-7) {
			t.Fatalf("roots (%g,%g) != want (%g,%g)", x1, x2, lo, hi)
		}
	}
}

func TestQuadraticRootsCancellation(t *testing.T) {
	// b² >> 4ac: naive (-b+√disc)/(2a) would lose the small root entirely.
	// a=1e-10, b=-1, c=1e-10 → roots ≈ 1e-10 and 1e10.
	x1, x2, err := QuadraticRoots(1e-10, -1, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(x1, 1e-10, 1e-9, 0) {
		t.Errorf("small root = %g, want 1e-10", x1)
	}
	if !ApproxEqual(x2, 1e10, 1e-9, 0) {
		t.Errorf("large root = %g, want 1e10", x2)
	}
}

func TestQuadraticRootsTheorem1Regime(t *testing.T) {
	// The Theorem 1 quadratic for Hera/XScale, σ1=0.4, σ2=0.4, ρ=3:
	// a = λ/(σ1σ2), b = 1/σ1 + λ(R/σ1 + V/(σ1σ2)) − ρ, c = C + V/σ1.
	lambda, C, V, R := 3.38e-6, 300.0, 15.4, 300.0
	s1, s2, rho := 0.4, 0.4, 3.0
	a := lambda / (s1 * s2)
	b := 1/s1 + lambda*(R/s1+V/(s1*s2)) - rho
	c := C + V/s1
	x1, x2, err := QuadraticRoots(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if x1 <= 0 || x2 <= x1 {
		t.Fatalf("expected two positive roots, got %g, %g", x1, x2)
	}
	// Check they satisfy the equation.
	for _, x := range []float64{x1, x2} {
		res := a*x*x + b*x + c
		if math.Abs(res) > 1e-6*math.Abs(c) {
			t.Errorf("residual at %g: %g", x, res)
		}
	}
}

func TestQuadraticNoRoot(t *testing.T) {
	if _, _, err := QuadraticRoots(1, 0, 1); err != ErrNoRoot {
		t.Errorf("x²+1=0 should have no real root, got err=%v", err)
	}
	if _, _, err := QuadraticRoots(0, 0, 1); err != ErrNoRoot {
		t.Errorf("degenerate constant equation, got err=%v", err)
	}
}

func TestQuadraticLinearFallback(t *testing.T) {
	x1, x2, err := QuadraticRoots(0, 2, -8)
	if err != nil {
		t.Fatal(err)
	}
	if x1 != 4 || x2 != 4 {
		t.Errorf("linear root %g,%g; want 4,4", x1, x2)
	}
}

func TestQuadraticDoubleRoot(t *testing.T) {
	// (x-3)² = x² -6x + 9.
	x1, x2, err := QuadraticRoots(1, -6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !ApproxEqual(x1, 3, 1e-9, 0) || !ApproxEqual(x2, 3, 1e-9, 0) {
		t.Errorf("double root %g,%g; want 3,3", x1, x2)
	}
}

func TestBrentRootPolynomial(t *testing.T) {
	f := func(x float64) float64 { return x*x*x - 2*x - 5 } // root ≈ 2.0945514815
	x, err := BrentRoot(f, 2, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-2.0945514815423265) > 1e-9 {
		t.Errorf("root = %.12f", x)
	}
}

func TestBrentRootTranscendental(t *testing.T) {
	// e^x = 2x + 1 has a nonzero root ≈ 1.2564.
	f := func(x float64) float64 { return math.Exp(x) - 2*x - 1 }
	x, err := BrentRoot(f, 0.5, 3, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(x)) > 1e-9 {
		t.Errorf("f(root) = %g", f(x))
	}
}

func TestBrentRootEndpointHits(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := BrentRoot(f, 0, 1, 1e-12); err != nil || x != 0 {
		t.Errorf("root at left endpoint: x=%g err=%v", x, err)
	}
	if x, err := BrentRoot(f, -1, 0, 1e-12); err != nil || x != 0 {
		t.Errorf("root at right endpoint: x=%g err=%v", x, err)
	}
}

func TestBrentRootNotBracketed(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := BrentRoot(f, -1, 1, 1e-12); err != ErrNotBracketed {
		t.Errorf("want ErrNotBracketed, got %v", err)
	}
}

func TestBrentRootInvalidInterval(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := BrentRoot(f, 1, 0, 1e-12); err != ErrInvalidInterval {
		t.Errorf("want ErrInvalidInterval, got %v", err)
	}
}

func TestBisectAgreesWithBrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		shift := rng.Float64()*4 - 2
		f := func(x float64) float64 { return math.Tanh(x - shift) }
		xb, err1 := BrentRoot(f, -10, 10, 1e-10)
		xs, err2 := BisectRoot(f, -10, 10, 1e-10)
		if err1 != nil || err2 != nil {
			t.Fatalf("err1=%v err2=%v", err1, err2)
		}
		if math.Abs(xb-xs) > 1e-8 {
			t.Fatalf("Brent %g vs bisect %g for shift %g", xb, xs, shift)
		}
	}
}

func TestBrentMinQuadratic(t *testing.T) {
	f := func(x float64) float64 { return 2*(x-1.25)*(x-1.25) + 7 }
	x, err := BrentMin(f, -10, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-1.25) > 1e-7 {
		t.Errorf("min at %g, want 1.25", x)
	}
}

func TestBrentMinOverheadShape(t *testing.T) {
	// The canonical overhead curve c/W + y + z·W is minimized at √(c/z).
	c, z := 402.667, 2.1125e-5
	f := func(w float64) float64 { return c/w + 3.0 + z*w }
	x, err := BrentMin(f, 1, 1e7, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(c / z)
	if !ApproxEqual(x, want, 1e-6, 0) {
		t.Errorf("min at %g, want %g", x, want)
	}
}

func TestMinimizeConvex1D(t *testing.T) {
	c, z := 300.0, 1e-5
	f := func(w float64) float64 { return c/w + z*w }
	want := math.Sqrt(c / z)
	for _, start := range []float64{1, 100, 1e4, 1e8} {
		x, err := MinimizeConvex1D(f, start, 1e-12)
		if err != nil {
			t.Fatalf("start=%g: %v", start, err)
		}
		if !ApproxEqual(x, want, 1e-5, 0) {
			t.Errorf("start=%g: min at %g, want %g", start, x, want)
		}
	}
}

func TestMinimizeConvex1DRejectsNonPositiveStart(t *testing.T) {
	_, err := MinimizeConvex1D(func(x float64) float64 { return x * x }, 0, 1e-9)
	if err != ErrInvalidInterval {
		t.Errorf("want ErrInvalidInterval, got %v", err)
	}
}
