// Package workload provides real, state-carrying divisible-load kernels
// for the full-stack simulator. The paper's application model is a
// divisible load: work can be split at any point and checkpoints inserted
// anywhere. Each kernel here advances genuine numerical state in
// arbitrary work-unit increments, serializes that state for
// checkpointing, and restores it on recovery — so the simulator's
// checkpoint/verify/recover path exercises real data, not placeholders.
//
// The kernels compute the same bits on every GOARCH and CPU. Go may fuse
// x*y+z into one multiply-add instruction (arm64 does), so every product
// that feeds a sum is wrapped in an explicit float64 conversion, the
// language's barrier against fusion. Initial states use mathx.Exp, not
// math.Exp, whose last bit depends on the GOARCH and, on amd64, on
// whether the CPU has FMA. On amd64 the 2-D sweep is SSE2 assembly and
// the grid kernels serialize by copying memory; elsewhere sweepGeneric
// and the generic encoder run, and tests hold the two paths to the same
// bits. TestStateGolden pins the bits; CI runs it under GOARCH=386 and
// GODEBUG=cpu.fma=off, and fails on any fused instruction in the
// package's arm64 listing.
package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"respeed/internal/mathx"
)

// Workload is a divisible-load computation with checkpointable state.
//
// Implementations are deterministic: the state after a sequence of
// Advance calls depends only on the starting state and the units
// advanced, and Restore of a snapshot fully re-establishes the state it
// was taken from, whatever the workload did in between. Advancing
// straight through a sequence of sizes therefore yields byte-equal
// State() at every boundary to snapshotting, advancing, restoring and
// re-advancing. The engine relies on this contract to compute the clean
// reference trajectory once and verify every run, retry and rollback
// against it; TestReferenceTrajectoryContract pins it for every kernel.
type Workload interface {
	// Name identifies the kernel.
	Name() string
	// Advance performs units of work, mutating internal state. Fractional
	// units accumulate; implementations quantize internally.
	Advance(units float64)
	// Progress returns total units completed since construction/reset.
	Progress() float64
	// State serializes the current state. The returned slice aliases
	// internal storage and is invalidated by the next Advance; callers
	// that need durability must copy (the engine's checkpoints do).
	State() []byte
	// Restore replaces the state with a previously serialized snapshot.
	Restore(state []byte) error
	// Clone returns an independent deep copy (the engine steps one
	// through the reference trajectory, and gives each worker its own).
	Clone() Workload
}

// ErrBadSnapshot is returned by Restore for malformed snapshots.
var ErrBadSnapshot = errors.New("workload: snapshot size mismatch")

// encodeState serializes a grid kernel's state into snap, grown as
// needed: the values, then frac and done, as little-endian float64 bits.
func encodeState(snap []byte, vals []float64, frac, done float64) []byte {
	need := 8 * (len(vals) + 2)
	if cap(snap) < need {
		snap = make([]byte, need)
	}
	snap = snap[:need]
	putFloats(snap, vals)
	binary.LittleEndian.PutUint64(snap[8*len(vals):], math.Float64bits(frac))
	binary.LittleEndian.PutUint64(snap[8*len(vals)+8:], math.Float64bits(done))
	return snap
}

// decodeState is encodeState's inverse. A state of another length
// leaves everything as it was and returns ErrBadSnapshot.
func decodeState(state []byte, vals []float64, frac, done *float64) error {
	if len(state) != 8*(len(vals)+2) {
		return ErrBadSnapshot
	}
	getFloats(vals, state)
	*frac = math.Float64frombits(binary.LittleEndian.Uint64(state[8*len(vals):]))
	*done = math.Float64frombits(binary.LittleEndian.Uint64(state[8*len(vals)+8:]))
	return nil
}

// putFloatsGeneric writes vals into dst as little-endian float64 bits,
// one value at a time. It is putFloats on every GOARCH but amd64, and
// the reference TestStateBytesMatchGeneric holds the amd64 copy to.
func putFloatsGeneric(dst []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// getFloatsGeneric is putFloatsGeneric's inverse.
func getFloatsGeneric(vals []float64, src []byte) {
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// --- 1-D heat diffusion stencil ---

// Heat is an explicit 1-D heat-equation stencil: the canonical iterative
// PDE solver the silent-error literature studies (cf. Benson et al. on
// time-stepping schemes). One work unit = one sweep over the grid.
type Heat struct {
	grid     []float64
	buf      []float64
	alpha    float64
	frac     float64
	done     float64
	snapshot []byte
}

// NewHeat creates a stencil of n cells with diffusion coefficient alpha
// (stable for alpha ≤ 0.5) and a deterministic hot-spot initial
// condition.
func NewHeat(n int, alpha float64) *Heat {
	if n < 3 {
		panic("workload: heat grid needs ≥ 3 cells")
	}
	if alpha <= 0 || alpha > 0.5 {
		panic("workload: alpha must be in (0, 0.5]")
	}
	h := &Heat{grid: make([]float64, n), buf: make([]float64, n), alpha: alpha}
	for i := range h.grid {
		x := float64(i) / float64(n-1)
		h.grid[i] = mathx.Exp(-50 * (x - 0.5) * (x - 0.5)) // Gaussian pulse
	}
	return h
}

// Name implements Workload.
func (h *Heat) Name() string { return fmt.Sprintf("heat-%d", len(h.grid)) }

// Advance implements Workload: each whole unit is one stencil sweep.
func (h *Heat) Advance(units float64) {
	if units < 0 {
		panic("workload: negative work")
	}
	h.frac += units
	steps := int(h.frac)
	h.frac -= float64(steps)
	for s := 0; s < steps; s++ {
		n := len(h.grid)
		h.buf[0], h.buf[n-1] = h.grid[0], h.grid[n-1]
		for i := 1; i < n-1; i++ {
			h.buf[i] = h.grid[i] + float64(h.alpha*(h.grid[i-1]-2*h.grid[i]+h.grid[i+1]))
		}
		h.grid, h.buf = h.buf, h.grid
	}
	h.done += units
}

// Progress implements Workload.
func (h *Heat) Progress() float64 { return h.done }

// State implements Workload: grid cells plus the progress counters,
// little-endian float64s.
func (h *Heat) State() []byte {
	h.snapshot = encodeState(h.snapshot, h.grid, h.frac, h.done)
	return h.snapshot
}

// Restore implements Workload.
func (h *Heat) Restore(state []byte) error {
	return decodeState(state, h.grid, &h.frac, &h.done)
}

// Clone implements Workload.
func (h *Heat) Clone() Workload {
	c := &Heat{
		grid:  append([]float64(nil), h.grid...),
		buf:   make([]float64, len(h.buf)),
		alpha: h.alpha,
		frac:  h.frac,
		done:  h.done,
	}
	return c
}

// --- Pseudo-random stream reduction ---

// Stream is a deterministic PRNG-stream reduction: one work unit consumes
// one block of pseudo-random values and folds them into running sums.
// It models the bandwidth-bound reduction phase of data-analytics loads;
// its state is tiny, which stresses the opposite end of the
// checkpoint-size spectrum from Heat.
type Stream struct {
	state    uint64
	sum      float64
	sumSq    float64
	blockLen int
	frac     float64
	done     float64
	snapshot [40]byte
}

// NewStream creates a reduction with the given seed and block length per
// work unit.
func NewStream(seed uint64, blockLen int) *Stream {
	if blockLen < 1 {
		panic("workload: blockLen must be ≥ 1")
	}
	return &Stream{state: seed*2862933555777941757 + 3037000493, blockLen: blockLen}
}

// Name implements Workload.
func (s *Stream) Name() string { return fmt.Sprintf("stream-%d", s.blockLen) }

// Advance implements Workload.
func (s *Stream) Advance(units float64) {
	if units < 0 {
		panic("workload: negative work")
	}
	s.frac += units
	steps := int(s.frac)
	s.frac -= float64(steps)
	for i := 0; i < steps*s.blockLen; i++ {
		// SplitMix64 step.
		s.state += 0x9e3779b97f4a7c15
		z := s.state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		v := float64(float64(z>>11) * 0x1p-53)
		s.sum += v
		s.sumSq += float64(v * v)
	}
	s.done += units
}

// Progress implements Workload.
func (s *Stream) Progress() float64 { return s.done }

// Sum returns the running reduction value (for assertions in tests).
func (s *Stream) Sum() float64 { return s.sum }

// State implements Workload.
func (s *Stream) State() []byte {
	binary.LittleEndian.PutUint64(s.snapshot[0:], s.state)
	binary.LittleEndian.PutUint64(s.snapshot[8:], math.Float64bits(s.sum))
	binary.LittleEndian.PutUint64(s.snapshot[16:], math.Float64bits(s.sumSq))
	binary.LittleEndian.PutUint64(s.snapshot[24:], math.Float64bits(s.frac))
	binary.LittleEndian.PutUint64(s.snapshot[32:], math.Float64bits(s.done))
	return s.snapshot[:]
}

// Restore implements Workload.
func (s *Stream) Restore(state []byte) error {
	if len(state) != len(s.snapshot) {
		return ErrBadSnapshot
	}
	s.state = binary.LittleEndian.Uint64(state[0:])
	s.sum = math.Float64frombits(binary.LittleEndian.Uint64(state[8:]))
	s.sumSq = math.Float64frombits(binary.LittleEndian.Uint64(state[16:]))
	s.frac = math.Float64frombits(binary.LittleEndian.Uint64(state[24:]))
	s.done = math.Float64frombits(binary.LittleEndian.Uint64(state[32:]))
	return nil
}

// Clone implements Workload.
func (s *Stream) Clone() Workload {
	c := *s
	return &c
}

// --- Power-iteration mat-vec kernel ---

// MatVec runs repeated dense matrix–vector products with normalization
// (power iteration), the computational core of Krylov-style solvers whose
// orthogonality checks motivate application-specific verification in the
// paper's introduction. One work unit = one y = normalize(A·x) step. The
// matrix is an implicit deterministic stencil-like operator, so only the
// vector is state.
type MatVec struct {
	vec      []float64
	buf      []float64
	frac     float64
	done     float64
	snapshot []byte
}

// NewMatVec creates a power iteration on an n-vector with a deterministic
// starting vector.
func NewMatVec(n int) *MatVec {
	if n < 2 {
		panic("workload: matvec needs n ≥ 2")
	}
	m := &MatVec{vec: make([]float64, n), buf: make([]float64, n)}
	for i := range m.vec {
		m.vec[i] = 1 / float64(i+1)
	}
	return m
}

// Name implements Workload.
func (m *MatVec) Name() string { return fmt.Sprintf("matvec-%d", len(m.vec)) }

// apply computes buf = A·vec for the implicit operator
// A[i][j] = 1/(1+|i−j|) truncated to a bandwidth of 8 — diagonally
// dominant, cheap, and irregular enough that corruption propagates.
func (m *MatVec) apply() {
	n := len(m.vec)
	const band = 8
	for i := 0; i < n; i++ {
		var acc float64
		lo, hi := i-band, i+band
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		for j := lo; j <= hi; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			acc += m.vec[j] / float64(1+d)
		}
		m.buf[i] = acc
	}
}

// Advance implements Workload.
func (m *MatVec) Advance(units float64) {
	if units < 0 {
		panic("workload: negative work")
	}
	m.frac += units
	steps := int(m.frac)
	m.frac -= float64(steps)
	for s := 0; s < steps; s++ {
		m.apply()
		var norm float64
		for _, v := range m.buf {
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for i, v := range m.buf {
			m.vec[i] = v / norm
		}
	}
	m.done += units
}

// Progress implements Workload.
func (m *MatVec) Progress() float64 { return m.done }

// State implements Workload.
func (m *MatVec) State() []byte {
	m.snapshot = encodeState(m.snapshot, m.vec, m.frac, m.done)
	return m.snapshot
}

// Restore implements Workload.
func (m *MatVec) Restore(state []byte) error {
	return decodeState(state, m.vec, &m.frac, &m.done)
}

// Clone implements Workload.
func (m *MatVec) Clone() Workload {
	return &MatVec{
		vec:  append([]float64(nil), m.vec...),
		buf:  make([]float64, len(m.buf)),
		frac: m.frac,
		done: m.done,
	}
}
