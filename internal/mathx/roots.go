package mathx

import "math"

// QuadraticRoots solves a*x^2 + b*x + c = 0 for real roots, returning them
// in ascending order. The discriminant is evaluated with a fused
// multiply-add and the smaller-magnitude root is recovered via Vieta's
// identity (c / (a*r1)) to avoid the classic catastrophic cancellation
// when b^2 >> 4ac — exactly the regime of Theorem 1, where the linear
// coefficient dominates for small λ.
//
// Degenerate cases:
//   - a == 0, b != 0: the single root -c/b is returned twice.
//   - a == 0, b == 0: ErrNoRoot (or, if c == 0 too, the equation is
//     trivially satisfied everywhere; we still report ErrNoRoot because a
//     specific root is meaningless).
//   - negative discriminant: ErrNoRoot.
func QuadraticRoots(a, b, c float64) (x1, x2 float64, err error) {
	if a == 0 {
		if b == 0 {
			return 0, 0, ErrNoRoot
		}
		r := -c / b
		return r, r, nil
	}
	disc := math.FMA(b, b, -4*a*c)
	if disc < 0 {
		return 0, 0, ErrNoRoot
	}
	sq := math.Sqrt(disc)
	// q = -(b + sign(b)*sqrt(disc)) / 2 avoids subtracting nearly equal
	// quantities for either sign of b.
	var q float64
	if b >= 0 {
		q = -(b + sq) / 2
	} else {
		q = -(b - sq) / 2
	}
	var r1, r2 float64
	if q != 0 {
		r1 = q / a
		r2 = c / q
	} else {
		// b == 0 and disc == -4ac >= 0.
		r1 = sq / (2 * a)
		r2 = -r1
	}
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return r1, r2, nil
}

// Cbrt is a readability alias of math.Cbrt used by the Theorem 2 law.
func Cbrt(x float64) float64 { return math.Cbrt(x) }

// BrentRoot finds a root of f in [a, b] using Brent's method (inverse
// quadratic interpolation guarded by bisection). f(a) and f(b) must have
// opposite signs. tol is an absolute tolerance on x; the method always
// converges for continuous f.
func BrentRoot(f func(float64) float64, a, b, tol float64) (float64, error) {
	if !(a < b) {
		return 0, ErrInvalidInterval
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrNotBracketed
	}
	c, fc := a, fa
	d, e := b-a, b-a
	const maxIter = 200
	for i := 0; i < maxIter; i++ {
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.Nextafter(math.Abs(b), math.Inf(1))*0x1p-52 + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			if a == c {
				// Secant step.
				p = 2 * xm * s
				q = 1 - s
			} else {
				// Inverse quadratic interpolation.
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else if xm > 0 {
			b += tol1
		} else {
			b -= tol1
		}
		fb = f(b)
	}
	return b, ErrMaxIterations
}

// BisectRoot is a robust fallback root finder used by tests to
// cross-check BrentRoot. Same contract as BrentRoot but linear
// convergence.
func BisectRoot(f func(float64) float64, a, b, tol float64) (float64, error) {
	if !(a < b) {
		return 0, ErrInvalidInterval
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if (fa > 0) == (fb > 0) {
		return 0, ErrNotBracketed
	}
	for i := 0; i < 400; i++ {
		m := a + (b-a)/2
		if b-a <= tol || m == a || m == b {
			return m, nil
		}
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if (fa > 0) == (fm > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return a + (b-a)/2, ErrMaxIterations
}
