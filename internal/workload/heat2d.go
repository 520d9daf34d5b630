package workload

import (
	"fmt"

	"respeed/internal/mathx"
)

// Heat2D is an explicit 2-D heat-equation stencil on an n×n grid — the
// larger-state sibling of Heat, sized like the multi-megabyte checkpoint
// images the paper's platforms (Table 1) were measured on. One work unit
// = one five-point sweep. On amd64 the sweep runs in SSE2 assembly, two
// cells per instruction, with sweepGeneric's bits (sweep_amd64.s).
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
			h.grid[i*n+j] = mathx.Exp(-40*(float64(x*x)+float64(y*y))) +
				float64(0.5*mathx.Exp(-60*(float64(x2*x2)+float64(y2*y2))))
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
	n := h.n
	for s := 0; s < steps; s++ {
		grid, buf := h.grid, h.buf
		// Boundary rows are Dirichlet (copied); sweep copies the
		// boundary columns.
		copy(buf[:n], grid[:n])
		copy(buf[(n-1)*n:], grid[(n-1)*n:])
		sweep(buf, grid, n, h.alpha)
		h.grid, h.buf = buf, grid
	}
	h.done += units
}

// sweepGeneric writes the interior rows of buf, the n×n grid after one
// sweep: each cell c with neighbours up, down, left and right becomes
// c + alpha*((((up+down)+left)+right) − 4c), in that float order, and
// the first and last cells of each row are copied. It is the sweep on
// every GOARCH but amd64, and the reference TestSweepMatchesGeneric
// holds the amd64 routine to.
func sweepGeneric(buf, grid []float64, n int, alpha float64) {
	for i := n; i < (n-1)*n; i += n {
		// One row and its neighbours, swept without per-cell index
		// arithmetic.
		up, mid, down, out := grid[i-n:i], grid[i:i+n], grid[i+n:i+2*n], buf[i:i+n]
		out[0], out[n-1] = mid[0], mid[n-1]
		for j := 1; j < n-1; j++ {
			c := mid[j]
			out[j] = c + float64(alpha*(up[j]+down[j]+mid[j-1]+mid[j+1]-float64(4*c)))
		}
	}
}

// Progress implements Workload.
func (h *Heat2D) Progress() float64 { return h.done }

// State implements Workload.
func (h *Heat2D) State() []byte {
	h.snap = encodeState(h.snap, h.grid, h.frac, h.done)
	return h.snap
}

// Restore implements Workload.
func (h *Heat2D) Restore(state []byte) error {
	return decodeState(state, h.grid, &h.frac, &h.done)
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
