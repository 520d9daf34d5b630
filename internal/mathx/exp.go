package mathx

import "math"

// Exp returns e**x with the same bits on every GOARCH and CPU.
//
// The standard library's math.Exp has three implementations: amd64
// assembly that switches at run time to fused multiply-adds when the CPU
// has FMA, arm64 assembly with FMA, and pure Go elsewhere. They disagree
// in the last bit on a few percent of inputs, so a kernel built from
// math.Exp starts from host-dependent state. Exp is a port of the amd64
// FMA path, with every fused step written as math.FMA (exactly rounded
// in hardware or software), so it returns what math.Exp returns on an
// amd64 CPU with FMA, special cases included: NaN and +Inf return x, −Inf
// returns 0, and like that path it overflows to +Inf from x ≈ 709.437,
// where the result's exponent would reach 1024.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920 // 1/ln 2
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
		absMask  = 1<<63 - 1
	)
	if bits := math.Float64bits(x); bits&absMask >= 0x7FF<<52 {
		if x == math.Inf(-1) {
			return 0
		}
		return x // NaN (payload kept) or +Inf
	}
	if x > overflow {
		return math.Inf(1)
	}
	// k = round-half-even(x·log2e) as a 32-bit integer; CVTSD2SL gives
	// math.MinInt32 below its range, which underflows below as well.
	t := float64(log2e * x)
	k := int32(math.MinInt32)
	if t >= math.MinInt32 {
		k = int32(math.RoundToEven(t))
	}
	kf := float64(k)
	r := math.FMA(-kf, ln2U, x)
	r = math.FMA(-kf, ln2L, r)
	r = float64(r * 0.0625)
	// Taylor series of y = e**r − 1 up to r⁸/8!, then doubled back four
	// times by y ← (y+2)·y (e**2r − 1 from e**r − 1), the last time
	// fused with the +1 that gives e**16r.
	p := math.FMA(r, 2.4801587301587301587e-5, 1.9841269841269841270e-4)
	p = math.FMA(r, p, 1.3888888888888888889e-3)
	p = math.FMA(r, p, 8.3333333333333333333e-3)
	p = math.FMA(r, p, 4.1666666666666666667e-2)
	p = math.FMA(r, p, 1.6666666666666666667e-1)
	p = math.FMA(r, p, 0.5)
	p = math.FMA(r, p, 1)
	y := float64(r * p)
	for i := 0; i < 3; i++ {
		y = float64(y * float64(y+2))
	}
	y = math.FMA(y+2, y, 1)
	// Scale by 2**k, in two steps when the result is subnormal.
	b := k + 0x3FF
	if b <= 0 {
		if b < -52 {
			return 0
		}
		y = float64(y * math.Float64frombits(uint64(b+0x3FE)<<52))
		b = 1
	} else if b >= 0x7FF {
		return math.Inf(1)
	}
	return float64(y * math.Float64frombits(uint64(b)<<52))
}
