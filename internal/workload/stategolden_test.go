package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenSizes mixes whole sweeps with dyadic and non-dyadic fractional
// work, so the pinned trajectories cover the kernels' float updates
// and their fractional-work accumulators.
var goldenSizes = []float64{1, 0.5, 2.25, 3, 1.0 / 3, 5, 0.75, 7, 2.7, 11}

// TestStateGolden pins every kernel's float bits: the FNV-64a of State()
// at each boundary of goldenSizes, folded into one hash per kernel.
// Verification compares live and reference states that the same code
// computed, so no engine test sees a change in a kernel's arithmetic —
// a fused multiply-add or a reordered sum changes these constants and
// nothing else. They hold on every GOARCH and CPU: CI runs them under
// GOARCH=386, which builds sweepGeneric and the generic encoder instead
// of the amd64 paths, and under GODEBUG=cpu.fma=off, and fails on any
// fused instruction in the package's arm64 listing.
func TestStateGolden(t *testing.T) {
	cases := []struct {
		build func() Workload
		want  uint64
	}{
		{func() Workload { return NewHeat(64, 0.2) }, 0xf72b3b0f4df27bed},
		{func() Workload { return NewHeat2D(3, 0.2) }, 0xd53ea5695f885fc3},
		{func() Workload { return NewHeat2D(16, 0.2) }, 0x43cd21ad0a863267},
		{func() Workload { return NewMatVec(100) }, 0x4c1b095fdd6c900d},
		{func() Workload { return NewStream(42, 64) }, 0xfd83ca81c9940fa6},
	}
	for _, tc := range cases {
		w := tc.build()
		h := fnv.New64a()
		for _, units := range goldenSizes {
			w.Advance(units)
			s := fnv.New64a()
			s.Write(w.State())
			h.Write(binary.LittleEndian.AppendUint64(nil, s.Sum64()))
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: state trajectory hash %#016x, want %#016x", w.Name(), got, tc.want)
		}
	}
}
