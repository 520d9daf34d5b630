package workload

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Heat2D is an explicit 2-D heat-equation stencil on an n×n grid — the
// larger-state sibling of Heat, sized like the multi-megabyte checkpoint
// images the paper's platforms (Table 1) were measured on. One work unit
// = one five-point sweep.
type Heat2D struct {
	n     int
	grid  []float64
	buf   []float64
	alpha float64
	frac  float64
	done  float64
	snap  []byte
}

// NewHeat2D creates an n×n stencil (n ≥ 3) with diffusion coefficient
// alpha (stable for alpha ≤ 0.25 in 2-D) and two deterministic hot
// spots.
func NewHeat2D(n int, alpha float64) *Heat2D {
	if n < 3 {
		panic("workload: heat2d grid needs n ≥ 3")
	}
	if alpha <= 0 || alpha > 0.25 {
		panic("workload: 2-D alpha must be in (0, 0.25]")
	}
	h := &Heat2D{n: n, grid: make([]float64, n*n), buf: make([]float64, n*n), alpha: alpha}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i)/float64(n-1) - 0.3
			y := float64(j)/float64(n-1) - 0.3
			x2 := float64(i)/float64(n-1) - 0.75
			y2 := float64(j)/float64(n-1) - 0.75
			h.grid[i*n+j] = math.Exp(-40*(float64(x*x)+float64(y*y))) +
				float64(0.5*math.Exp(-60*(float64(x2*x2)+float64(y2*y2))))
		}
	}
	return h
}

// Name implements Workload.
func (h *Heat2D) Name() string { return fmt.Sprintf("heat2d-%dx%d", h.n, h.n) }

// Advance implements Workload.
func (h *Heat2D) Advance(units float64) {
	if units < 0 {
		panic("workload: negative work")
	}
	h.frac += units
	steps := int(h.frac)
	h.frac -= float64(steps)
	n, alpha := h.n, h.alpha
	for s := 0; s < steps; s++ {
		grid, buf := h.grid, h.buf
		// Boundary rows/cols are Dirichlet (copied).
		copy(buf[:n], grid[:n])
		copy(buf[(n-1)*n:], grid[(n-1)*n:])
		for i := n; i < (n-1)*n; i += n {
			// One row and its neighbours, swept without per-cell index
			// arithmetic, in the historical float operation order.
			up, mid, down, out := grid[i-n:i], grid[i:i+n], grid[i+n:i+2*n], buf[i:i+n]
			out[0], out[n-1] = mid[0], mid[n-1]
			for j := 1; j < n-1; j++ {
				c := mid[j]
				out[j] = c + float64(alpha*(up[j]+down[j]+mid[j-1]+mid[j+1]-float64(4*c)))
			}
		}
		h.grid, h.buf = buf, grid
	}
	h.done += units
}

// Progress implements Workload.
func (h *Heat2D) Progress() float64 { return h.done }

// State implements Workload.
func (h *Heat2D) State() []byte {
	need := 8 * (len(h.grid) + 2)
	if cap(h.snap) < need {
		h.snap = make([]byte, need)
	}
	h.snap = h.snap[:need]
	for i, v := range h.grid {
		binary.LittleEndian.PutUint64(h.snap[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint64(h.snap[8*len(h.grid):], math.Float64bits(h.frac))
	binary.LittleEndian.PutUint64(h.snap[8*(len(h.grid)+1):], math.Float64bits(h.done))
	return h.snap
}

// Restore implements Workload.
func (h *Heat2D) Restore(state []byte) error {
	if len(state) != 8*(len(h.grid)+2) {
		return ErrBadSnapshot
	}
	for i := range h.grid {
		h.grid[i] = math.Float64frombits(binary.LittleEndian.Uint64(state[8*i:]))
	}
	h.frac = math.Float64frombits(binary.LittleEndian.Uint64(state[8*len(h.grid):]))
	h.done = math.Float64frombits(binary.LittleEndian.Uint64(state[8*(len(h.grid)+1):]))
	return nil
}

// Clone implements Workload.
func (h *Heat2D) Clone() Workload {
	return &Heat2D{
		n:     h.n,
		grid:  append([]float64(nil), h.grid...),
		buf:   make([]float64, len(h.buf)),
		alpha: h.alpha,
		frac:  h.frac,
		done:  h.done,
	}
}

// Total returns the summed grid heat (diagnostics and tests).
func (h *Heat2D) Total() float64 {
	var s float64
	for _, v := range h.grid {
		s += v
	}
	return s
}
