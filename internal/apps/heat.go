package apps

import (
	"repro/internal/core"
	"repro/internal/hypermatrix"
)

// Heat diffusion on a blocked 2-D grid — the stencil demo that ships with
// the SMPSs distribution.  The Gauss-Seidel solver updates the grid in
// place, which makes the sweep a wavefront: block (i,j) needs the
// already-updated values of its north and west neighbours from the
// *current* sweep and the old values of its south and east neighbours
// from the *previous* one.  Declaring the block inout and the four
// neighbours in reproduces that wavefront automatically, and — because
// the next sweep's update of an east/south neighbour renames rather than
// waits for its readers — consecutive sweeps pipeline diagonally across
// the grid, parallelism no barrier-based model can express (§VII.B).
//
// The grid is stored as a dense hypermatrix.Matrix of m×m blocks.
// Boundary conditions are fixed temperatures on the four outer edges.

// HeatBC fixes the temperature outside each edge of the grid.
type HeatBC struct {
	Top, Bottom, Left, Right float32
}

// heatGSBlock performs one in-place Gauss-Seidel sweep over one m×m
// block.  Nil neighbours are outside the grid and read the boundary
// temperature instead.
func heatGSBlock(self, up, down, left, right []float32, m int, bc HeatBC) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var n, s, w, e float32
			if i > 0 {
				n = self[(i-1)*m+j]
			} else if up != nil {
				n = up[(m-1)*m+j]
			} else {
				n = bc.Top
			}
			if i < m-1 {
				s = self[(i+1)*m+j]
			} else if down != nil {
				s = down[j]
			} else {
				s = bc.Bottom
			}
			if j > 0 {
				w = self[i*m+j-1]
			} else if left != nil {
				w = left[i*m+m-1]
			} else {
				w = bc.Left
			}
			if j < m-1 {
				e = self[i*m+j+1]
			} else if right != nil {
				e = right[i*m]
			} else {
				e = bc.Right
			}
			self[i*m+j] = 0.25 * (n + s + w + e)
		}
	}
}

// heatJacobiBlock computes one Jacobi sweep of one block: dst is written
// from the previous-sweep values in src and its neighbours.
func heatJacobiBlock(dst, src, up, down, left, right []float32, m int, bc HeatBC) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var n, s, w, e float32
			if i > 0 {
				n = src[(i-1)*m+j]
			} else if up != nil {
				n = up[(m-1)*m+j]
			} else {
				n = bc.Top
			}
			if i < m-1 {
				s = src[(i+1)*m+j]
			} else if down != nil {
				s = down[j]
			} else {
				s = bc.Bottom
			}
			if j > 0 {
				w = src[i*m+j-1]
			} else if left != nil {
				w = left[i*m+m-1]
			} else {
				w = bc.Left
			}
			if j < m-1 {
				e = src[i*m+j+1]
			} else if right != nil {
				e = right[i*m]
			} else {
				e = bc.Right
			}
			dst[i*m+j] = 0.25 * (n + s + w + e)
		}
	}
}

// neighbours returns the four adjacent blocks of (i, j), nil outside the
// grid.
func neighbours(h *hypermatrix.Matrix, i, j int) (up, down, left, right []float32) {
	if i > 0 {
		up = h.Blocks[i-1][j]
	}
	if i < h.N-1 {
		down = h.Blocks[i+1][j]
	}
	if j > 0 {
		left = h.Blocks[i][j-1]
	}
	if j < h.N-1 {
		right = h.Blocks[i][j+1]
	}
	return
}

// HeatSeqGS runs sweeps in-place Gauss-Seidel sweeps sequentially in
// block-raster order.  For the four-point stencil this computes exactly
// the same values as an element-raster sweep over the flat grid (every
// neighbour is read in the same updated/old state), which
// TestHeatBlockedMatchesFlat asserts bit for bit.
func HeatSeqGS(h *hypermatrix.Matrix, bc HeatBC, sweeps int) {
	for s := 0; s < sweeps; s++ {
		for i := 0; i < h.N; i++ {
			for j := 0; j < h.N; j++ {
				up, down, left, right := neighbours(h, i, j)
				heatGSBlock(h.Blocks[i][j], up, down, left, right, h.M, bc)
			}
		}
	}
}

// HeatSMPSsGS runs the same sweeps as an SMPSs task program: one task per
// block per sweep, inout on the block, in on the four neighbours.  The
// dependency tracker derives the wavefront; renaming lets sweep s+1 start
// in the top-left corner while sweep s is still finishing in the
// bottom-right.
func HeatSMPSsGS(ctx *core.Context, h *hypermatrix.Matrix, bc HeatBC, sweeps int) error {
	m := h.M
	gs := core.NewTaskDef("heat_gs", func(a *core.Args) {
		get := func(i int) []float32 {
			if a.Opaque(i) == nil {
				return nil
			}
			return a.F32(i + 6)
		}
		heatGSBlock(a.F32(5), get(0), get(1), get(2), get(3), m, bc)
	})
	sub := &submitter{ctx: ctx}
	for s := 0; s < sweeps; s++ {
		for i := 0; i < h.N; i++ {
			for j := 0; j < h.N; j++ {
				up, down, left, right := neighbours(h, i, j)
				// Parameter layout: four presence flags + one pad value,
				// then the data arguments (self + present neighbours in
				// fixed order).  Absent neighbours pass the self block as
				// a harmless placeholder so indices stay fixed.
				args := make([]core.Arg, 0, 10)
				for _, nb := range [][]float32{up, down, left, right} {
					if nb == nil {
						args = append(args, core.Opaque(nil))
					} else {
						args = append(args, core.Opaque(true))
					}
				}
				args = append(args, core.Value(0)) // pad: data starts at 5
				args = append(args, core.InOut(h.Blocks[i][j]))
				for _, nb := range [][]float32{up, down, left, right} {
					if nb == nil {
						nb = h.Blocks[i][j] // placeholder, never read
					}
					args = append(args, core.In(nb))
				}
				sub.submit(gs, args...)
			}
		}
	}
	return sub.finish()
}

// HeatSeqJacobi runs sweeps Jacobi sweeps sequentially, double-buffering
// between h and a scratch grid, and returns the grid holding the result.
func HeatSeqJacobi(h *hypermatrix.Matrix, bc HeatBC, sweeps int) *hypermatrix.Matrix {
	cur, next := h, hypermatrix.New(h.N, h.M)
	for s := 0; s < sweeps; s++ {
		for i := 0; i < cur.N; i++ {
			for j := 0; j < cur.N; j++ {
				up, down, left, right := neighbours(cur, i, j)
				heatJacobiBlock(next.Blocks[i][j], cur.Blocks[i][j], up, down, left, right, cur.M, bc)
			}
		}
		cur, next = next, cur
	}
	return cur
}

// HeatSMPSsJacobi is the task version of the Jacobi solver; the explicit
// double-buffering makes every sweep embarrassingly parallel, at the cost
// of the slower convergence Jacobi is known for.  Returns the grid
// holding the result (valid after a barrier).
func HeatSMPSsJacobi(ctx *core.Context, h *hypermatrix.Matrix, bc HeatBC, sweeps int) (*hypermatrix.Matrix, error) {
	m := h.M
	jac := core.NewTaskDef("heat_jacobi", func(a *core.Args) {
		get := func(i int) []float32 {
			if a.Opaque(i) == nil {
				return nil
			}
			return a.F32(i + 7)
		}
		heatJacobiBlock(a.F32(5), a.F32(6), get(0), get(1), get(2), get(3), m, bc)
	})
	cur, next := h, hypermatrix.New(h.N, h.M)
	sub := &submitter{ctx: ctx}
	for s := 0; s < sweeps; s++ {
		for i := 0; i < cur.N; i++ {
			for j := 0; j < cur.N; j++ {
				up, down, left, right := neighbours(cur, i, j)
				args := make([]core.Arg, 0, 11)
				for _, nb := range [][]float32{up, down, left, right} {
					if nb == nil {
						args = append(args, core.Opaque(nil))
					} else {
						args = append(args, core.Opaque(true))
					}
				}
				args = append(args, core.Value(0)) // pad: data starts at 5
				args = append(args, core.Out(next.Blocks[i][j]), core.In(cur.Blocks[i][j]))
				for _, nb := range [][]float32{up, down, left, right} {
					if nb == nil {
						nb = cur.Blocks[i][j]
					}
					args = append(args, core.In(nb))
				}
				sub.submit(jac, args...)
			}
		}
		cur, next = next, cur
	}
	return cur, sub.finish()
}

// HeatResidual returns the maximum absolute 4-point stencil residual
// |u − 0.25·(n+s+w+e)| over the grid, a convergence measure.
func HeatResidual(h *hypermatrix.Matrix, bc HeatBC) float64 {
	dim := h.N * h.M
	at := func(r, c int) float32 {
		switch {
		case r < 0:
			return bc.Top
		case r >= dim:
			return bc.Bottom
		case c < 0:
			return bc.Left
		case c >= dim:
			return bc.Right
		}
		return h.At(r, c)
	}
	var worst float64
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			res := float64(h.At(r, c)) - 0.25*float64(at(r-1, c)+at(r+1, c)+at(r, c-1)+at(r, c+1))
			if res < 0 {
				res = -res
			}
			if res > worst {
				worst = res
			}
		}
	}
	return worst
}

// HeatGSFlat runs sweeps in-place Gauss-Seidel sweeps in element-raster
// order over a flat dim×dim grid — the unblocked reference for the
// exact-equivalence test of the blocked sweep.
func HeatGSFlat(u []float32, dim int, bc HeatBC, sweeps int) {
	at := func(r, c int) float32 {
		switch {
		case r < 0:
			return bc.Top
		case r >= dim:
			return bc.Bottom
		case c < 0:
			return bc.Left
		case c >= dim:
			return bc.Right
		}
		return u[r*dim+c]
	}
	for s := 0; s < sweeps; s++ {
		for r := 0; r < dim; r++ {
			for c := 0; c < dim; c++ {
				u[r*dim+c] = 0.25 * (at(r-1, c) + at(r+1, c) + at(r, c-1) + at(r, c+1))
			}
		}
	}
}
