package mathx

import "math"

// BrentMin minimizes a unimodal function on [a, b] with Brent's
// parabolic-interpolation method. It converges superlinearly on smooth
// objectives and falls back to golden-section steps otherwise. Returns
// the abscissa of the minimum.
func BrentMin(f func(float64) float64, a, b, tol float64) (float64, error) {
	if !(a < b) {
		return 0, ErrInvalidInterval
	}
	if tol <= 0 {
		tol = 1e-10
	}
	const cgold = 0.3819660112501051 // 2 - φ
	x := a + cgold*(b-a)
	w, v := x, x
	fx := f(x)
	fw, fv := fx, fx
	var d, e float64
	for i := 0; i < 300; i++ {
		xm := (a + b) / 2
		tol1 := tol*math.Abs(x) + 1e-12
		tol2 := 2 * tol1
		if math.Abs(x-xm) <= tol2-(b-a)/2 {
			return x, nil
		}
		useGolden := true
		if math.Abs(e) > tol1 {
			// Try a parabolic step through x, v, w.
			r := (x - w) * (fx - fv)
			q := (x - v) * (fx - fw)
			p := (x-v)*q - (x-w)*r
			q = 2 * (q - r)
			if q > 0 {
				p = -p
			}
			q = math.Abs(q)
			etmp := e
			e = d
			if math.Abs(p) < math.Abs(q*etmp/2) && p > q*(a-x) && p < q*(b-x) {
				d = p / q
				u := x + d
				if u-a < tol2 || b-u < tol2 {
					d = math.Copysign(tol1, xm-x)
				}
				useGolden = false
			}
		}
		if useGolden {
			if x >= xm {
				e = a - x
			} else {
				e = b - x
			}
			d = cgold * e
		}
		var u float64
		if math.Abs(d) >= tol1 {
			u = x + d
		} else {
			u = x + math.Copysign(tol1, d)
		}
		fu := f(u)
		if fu <= fx {
			if u >= x {
				a = x
			} else {
				b = x
			}
			v, w, x = w, x, u
			fv, fw, fx = fw, fx, fu
		} else {
			if u < x {
				a = u
			} else {
				b = u
			}
			if fu <= fw || w == x {
				v, fv = w, fw
				w, fw = u, fu
			} else if fu <= fv || v == x || v == w {
				v, fv = u, fu
			}
		}
	}
	return x, ErrMaxIterations
}

// MinimizeConvex1D minimizes a convex function over (0, ∞) by geometric
// bracket expansion followed by Brent refinement. start must be positive;
// it seeds the bracket search. Returns the minimizing abscissa.
//
// This is the workhorse behind the "exact" (non-Taylor) optimizer that
// cross-validates Theorem 1: the exact per-unit overhead curves diverge at
// both W→0+ (checkpoint cost dominates) and W→∞ (re-execution dominates),
// so a finite bracket always exists.
func MinimizeConvex1D(f func(float64) float64, start, tol float64) (float64, error) {
	if start <= 0 {
		return 0, ErrInvalidInterval
	}
	lo, hi := start, start
	flo, fhi := f(lo), f(hi)
	fstart := flo
	// Expand downward until f starts rising toward 0+.
	for i := 0; i < 200; i++ {
		next := lo / 2
		fn := f(next)
		if fn >= flo {
			break
		}
		lo, flo = next, fn
	}
	// Expand upward until f starts rising toward ∞.
	for i := 0; i < 200; i++ {
		next := hi * 2
		fn := f(next)
		if fn >= fhi {
			break
		}
		hi, fhi = next, fn
	}
	// Now widen one more notch on each side so the true minimum is interior.
	lo /= 2
	hi *= 2
	_ = fstart
	return BrentMin(f, lo, hi, tol)
}
