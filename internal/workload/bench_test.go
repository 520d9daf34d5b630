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
// (16×16) and at a large grid. 16x16-generic takes the same steps with
// sweepGeneric, the sweep of GOARCHes other than amd64, so one run
// shows the ratio (report-only).
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
	b.Run("16x16-generic", func(b *testing.B) {
		const n = 16
		h := NewHeat2D(n, 0.2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(h.buf[:n], h.grid[:n])
			copy(h.buf[(n-1)*n:], h.grid[(n-1)*n:])
			sweepGeneric(h.buf, h.grid, n, h.alpha)
			h.grid, h.buf = h.buf, h.grid
		}
	})
}
