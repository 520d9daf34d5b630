package workload

import (
	"bytes"
	"testing"
)

func TestHeat2DDeterminismAndRoundTrip(t *testing.T) {
	a := NewHeat2D(32, 0.2)
	b := NewHeat2D(32, 0.2)
	a.Advance(10)
	for i := 0; i < 40; i++ {
		b.Advance(0.25)
	}
	if !bytes.Equal(a.State(), b.State()) {
		t.Error("split advancement diverged")
	}
	snap := append([]byte(nil), a.State()...)
	a.Advance(5)
	if err := a.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.State(), snap) {
		t.Error("restore mismatch")
	}
}

func TestHeat2DCloneIndependence(t *testing.T) {
	h := NewHeat2D(24, 0.2)
	h.Advance(3)
	c := h.Clone()
	h.Advance(2)
	if bytes.Equal(h.State(), c.State()) {
		t.Error("clone tracked original")
	}
	c.Advance(2)
	if !bytes.Equal(h.State(), c.State()) {
		t.Error("clone trajectory diverged")
	}
}

func TestHeat2DDiffusionDecays(t *testing.T) {
	h := NewHeat2D(48, 0.2)
	before := h.Total()
	h.Advance(200)
	after := h.Total()
	if after > before+1e-9 {
		t.Errorf("heat grew: %g → %g", before, after)
	}
	if after <= 0 {
		t.Errorf("heat vanished: %g", after)
	}
}

func TestHeat2DRestoreRejectsWrongSize(t *testing.T) {
	h := NewHeat2D(16, 0.2)
	if err := h.Restore([]byte{1}); err != ErrBadSnapshot {
		t.Errorf("want ErrBadSnapshot, got %v", err)
	}
}

func TestHeat2DConstructorGuards(t *testing.T) {
	for _, f := range []func(){
		func() { NewHeat2D(2, 0.2) },
		func() { NewHeat2D(16, 0) },
		func() { NewHeat2D(16, 0.3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHeat2DName(t *testing.T) {
	if NewHeat2D(16, 0.2).Name() != "heat2d-16x16" {
		t.Error("name changed")
	}
}

func BenchmarkHeatStateSerialize(b *testing.B) {
	h := NewHeat2D(128, 0.2)
	h.Advance(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.State()
	}
}
