package workload

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// randomGrid returns an n×n grid of normal values across 40 binades of
// both signs and some subnormals. Mode 1 adds ±Inf and ±MaxFloat64/k;
// mode 2 adds NaNs with random payloads, quiet or signalling and of
// either sign, on a lattice three cells apart. The modes never mix and
// no two NaNs neighbour, so no operation of a sweep meets two NaNs with
// different payloads: x86 returns the first operand's then, and Go
// leaves the operand order of a commutative addition to the compiler (a
// race build orders sweepGeneric's last addition the other way).
func randomGrid(rng *rand.Rand, n, mode int) []float64 {
	a, b := rng.IntN(3), rng.IntN(3)
	g := make([]float64, n*n)
	for k := range g {
		switch r := rng.IntN(8); {
		case mode == 2 && k/n%3 == a && k%n%3 == b && r < 4:
			// Exponent all ones, a non-zero mantissa, either sign.
			g[k] = math.Float64frombits(0x7FF0_0000_0000_0000 | rng.Uint64()&0x800F_FFFF_FFFF_FFFF | 1)
		case mode == 1 && r == 0:
			g[k] = math.Inf(1 - 2*rng.IntN(2))
		case mode == 1 && r == 1:
			g[k] = (1 - 2*float64(rng.IntN(2))) * math.MaxFloat64 / float64(1+rng.IntN(8))
		case r == 2:
			g[k] = math.Float64frombits(rng.Uint64() & 0x800F_FFFF_FFFF_FFFF) // subnormal or ±0
		default:
			g[k] = math.Ldexp(rng.Float64()*2-1, rng.IntN(40)-20)
		}
	}
	return g
}

// TestSweepMatchesGeneric holds sweep, the build's sweep (SSE2 assembly
// on amd64), to sweepGeneric bit for bit, NaN payloads included, on
// random grids of even and odd interior widths.
func TestSweepMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 2))
	for n := 3; n <= 40; n++ {
		for mode := 0; mode < 3; mode++ {
			for _, alpha := range []float64{0.25, 0.2, 0.1, 1.0 / 3 / 4, 1e-3, 0.25 * (1 - rng.Float64())} {
				grid := randomGrid(rng, n, mode)
				got, want := make([]float64, n*n), make([]float64, n*n)
				sweep(got, grid, n, alpha)
				sweepGeneric(want, grid, n, alpha)
				for i := range got {
					if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
						t.Fatalf("n=%d mode %d alpha=%v cell (%d,%d): sweep %#016x, sweepGeneric %#016x",
							n, mode, alpha, i/n, i%n, g, w)
					}
				}
			}
		}
	}
}

// TestStateBytesMatchGeneric holds every grid kernel's State, over
// random bit patterns, to the generic encoder (the serialization on
// GOARCHes other than amd64) bit for bit, and checks that Restore
// round-trips the bytes into a fresh kernel.
func TestStateBytesMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 3))
	h1, h2, h3, m := NewHeat(64, 0.2), NewHeat2D(16, 0.2), NewHeat2D(5, 0.1), NewMatVec(100)
	cases := []struct {
		w          Workload
		vals       []float64
		frac, done *float64
		fresh      func() Workload
	}{
		{h1, h1.grid, &h1.frac, &h1.done, func() Workload { return NewHeat(64, 0.2) }},
		{h2, h2.grid, &h2.frac, &h2.done, func() Workload { return NewHeat2D(16, 0.2) }},
		{h3, h3.grid, &h3.frac, &h3.done, func() Workload { return NewHeat2D(5, 0.1) }},
		{m, m.vec, &m.frac, &m.done, func() Workload { return NewMatVec(100) }},
	}
	for _, c := range cases {
		for i := range c.vals {
			c.vals[i] = math.Float64frombits(rng.Uint64())
		}
		*c.frac, *c.done = rng.Float64(), float64(rng.IntN(1000))
		want := make([]byte, 8*(len(c.vals)+2))
		putFloatsGeneric(want, append(append([]float64(nil), c.vals...), *c.frac, *c.done))
		got := c.w.State()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: State differs from the generic encoding", c.w.Name())
		}
		r := c.fresh()
		if err := r.Restore(got); err != nil {
			t.Fatalf("%s: Restore: %v", c.w.Name(), err)
		}
		if !bytes.Equal(r.State(), want) {
			t.Errorf("%s: Restore did not round-trip the state", c.w.Name())
		}
		back := make([]float64, len(c.vals))
		getFloatsGeneric(back, r.State())
		for i := range back {
			if math.Float64bits(back[i]) != math.Float64bits(c.vals[i]) {
				t.Fatalf("%s: cell %d decodes to %#016x, want %#016x",
					c.w.Name(), i, math.Float64bits(back[i]), math.Float64bits(c.vals[i]))
			}
		}
	}
}
