package workload

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// randomSizes draws a pattern-size sequence mixing whole, dyadic and
// non-dyadic fractional work, so the kernels' fractional-work
// accumulators carry rounding across boundaries.
func randomSizes(rng *rand.Rand) []float64 {
	sizes := make([]float64, 1+rng.IntN(12))
	for i := range sizes {
		switch rng.IntN(4) {
		case 0:
			sizes[i] = float64(1 + rng.IntN(8))
		case 1:
			sizes[i] = float64(1+rng.IntN(32)) / 8
		case 2:
			sizes[i] = []float64{0.1, 0.3, 1.0 / 3, 2.7, 47.5 / 7}[rng.IntN(5)]
		default:
			sizes[i] = 6 * rng.Float64()
		}
	}
	return sizes
}

// TestReferenceTrajectoryContract is the determinism contract of
// Workload as a property over random size sequences: a kernel advanced
// straight through the sizes holds, at every boundary, the same bytes
// as one that snapshots, advances (here by a different, discarded
// amount, as a corrupted or failed attempt would), restores the
// snapshot and re-advances.
func TestReferenceTrajectoryContract(t *testing.T) {
	builds := []func() Workload{
		func() Workload { return NewHeat(128, 0.25) },
		func() Workload { return NewHeat(64, 0.1) },
		func() Workload { return NewStream(42, 64) },
		func() Workload { return NewMatVec(100) },
		func() Workload { return NewHeat2D(16, 0.2) },
	}
	rng := rand.New(rand.NewPCG(14, 3))
	for _, build := range builds {
		for trial := 0; trial < 40; trial++ {
			sizes := randomSizes(rng)
			straight, replay := build(), build()
			for k, w := range sizes {
				straight.Advance(w)
				snap := append([]byte(nil), replay.State()...)
				replay.Advance(w + 1.5*rng.Float64())
				if err := replay.Restore(snap); err != nil {
					t.Fatalf("%s: restore: %v", straight.Name(), err)
				}
				replay.Advance(w)
				if !bytes.Equal(replay.State(), straight.State()) {
					t.Fatalf("%s trial %d: state after sizes[0..%d] of %v differs between straight and restored replay",
						straight.Name(), trial, k, sizes)
				}
			}
		}
	}
}
