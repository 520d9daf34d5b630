package workload

import (
	"fmt"
	"testing"
)

func BenchmarkHeatAdvance(b *testing.B) {
	h := NewHeat(1024, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Advance(1)
	}
}

func BenchmarkStreamAdvance(b *testing.B) {
	s := NewStream(1, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Advance(1)
	}
}

func BenchmarkMatVecAdvance(b *testing.B) {
	m := NewMatVec(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Advance(1)
	}
}

func BenchmarkHeatRestore(b *testing.B) {
	h := NewHeat(1024, 0.25)
	h.Advance(3)
	snap := append([]byte(nil), h.State()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeat2DAdvance sweeps the stencil at the simulate shape
// (16×16) and at a large grid.
func BenchmarkHeat2DAdvance(b *testing.B) {
	for _, n := range []int{16, 128} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			h := NewHeat2D(n, 0.2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Advance(1)
			}
		})
	}
}
