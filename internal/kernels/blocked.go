package kernels

// Blocked level-3 Trsm and Potrf on the packed engine.
//
// Both recurse on nr-aligned column splits until a diagonal block is
// at most one panel (nb) wide, so that everything off the diagonal
// blocks is the engine's GEMM-NT/SYRK driver (engine.go) at the largest
// k the split allows, and only the nb×nb diagonal blocks are scalar:
// Potrf factors each with the unblocked loop, and both kernels solve
// against one by multiplying with its explicit inverse — a triangular
// solve turned into one more micro-kernel product, X = B·(L⁻¹)ᵀ.  The
// inverses cost O(m·nb²) against the O(m³) they unlock.
//
// Neither kernel reads or writes the strict upper triangle of L or A:
// the off-diagonal operands lie wholly below the diagonal blocks, the
// diagonal-block loops index j ≤ i only, and Potrf's trailing update is
// the driver's lower mode.

// diagBlock is the target width of a diagonal block; the panel width
// nb is its round-up to a multiple of the engine's nr, so every column
// split falls on a micro-kernel panel boundary.
const diagBlock = 16

// blocked is the working state of one Trsm or Potrf call, carved from
// one scratch arena so the recursion allocates nothing.
type blocked struct {
	cfg   *engineConfig
	nb    int
	inv   []float32 // inverses of the diagonal blocks, nb×nb row-major each
	tmp   []float32 // copy of the B panel a diagonal solve overwrites
	arena []float32 // the gemm driver's packing arena
}

// newBlocked sizes the scratch for an m×m problem.
func (cfg *engineConfig) newBlocked(s *Scratch, m int) blocked {
	nr := cfg.kern.nr
	nb := (diagBlock + nr - 1) / nr * nr
	invLen, tmpLen := (m+nb-1)/nb*nb*nb, m*nb
	buf := s.ensure(invLen + tmpLen + cfg.gemmArena(m, m))
	return blocked{
		cfg:   cfg,
		nb:    nb,
		inv:   buf[:invLen],
		tmp:   buf[invLen : invLen+tmpLen],
		arena: buf[invLen+tmpLen:],
	}
}

// Trsm solves X·Lᵀ = B in place of B through the blocked engine.
func (e *engine) Trsm(l, b []float32, m int) {
	cfg := e.cfg.Load()
	if m < cfg.crossover {
		trsmFast(l, b, m)
		return
	}
	s := AcquireScratch()
	w := cfg.newBlocked(s, m)
	for j0 := 0; j0 < m; j0 += w.nb {
		invertLower(w.inv[j0*w.nb:], mat{l, m}.at(j0, j0), min(w.nb, m-j0), w.nb)
	}
	w.trsm(w.inv, mat{l, m}, mat{b, m}, m, m)
	ReleaseScratch(s)
}

// Potrf factors the lower triangle of A in place through the blocked
// engine, returning false on a non-positive or NaN pivot.
func (e *engine) Potrf(a []float32, m int) bool {
	cfg := e.cfg.Load()
	if m < cfg.crossover {
		return potrf(a, m)
	}
	s := AcquireScratch()
	w := cfg.newBlocked(s, m)
	ok := w.potrf(w.inv, mat{a, m}, m)
	ReleaseScratch(s)
	return ok
}

// split returns where to cut an n-wide problem (n > nb): a multiple of
// nb near the middle.
func (w *blocked) split(n int) int { return (n + w.nb - 1) / w.nb / 2 * w.nb }

// trsm solves X·Lᵀ = B in place of B[rows×n] for the n×n lower
// triangle L, given inv, the inverses of L's diagonal blocks.
//
//	[X1 X2]·[L11ᵀ L21ᵀ; 0 L22ᵀ] = [B1 B2]:
//	X1 = B1·L11⁻ᵀ,  B2 -= X1·L21ᵀ,  X2 = B2·L22⁻ᵀ.
func (w *blocked) trsm(inv []float32, l, b mat, rows, n int) {
	if n <= w.nb {
		// X = B·(L⁻¹)ᵀ.  The product cannot run in place (the driver
		// accumulates into C), so B moves to tmp and C starts at zero.
		tmp := mat{w.tmp, w.nb}
		for r := 0; r < rows; r++ {
			br := b.p[r*b.ld : r*b.ld+n]
			copy(tmp.p[r*tmp.ld:], br)
			clear(br)
		}
		w.cfg.gemm(w.arena, tmp, mat{inv, w.nb}, b, rows, n, n, transB)
		return
	}
	h := w.split(n)
	w.trsm(inv, l, b, rows, h)
	w.cfg.gemm(w.arena, b, l.at(h, 0), b.at(0, h), rows, n-h, h, transB|sub)
	w.trsm(inv[h*w.nb:], l.at(h, h), b.at(0, h), rows, n-h)
}

// potrf factors the n×n lower triangle of A in place, leaving the
// inverses of its diagonal blocks in inv.
//
//	L11 = chol(A11),  L21 = A21·L11⁻ᵀ,  A22 -= L21·L21ᵀ,  L22 = chol(A22).
func (w *blocked) potrf(inv []float32, a mat, n int) bool {
	if n <= w.nb {
		if !potrfLD(a.p, a.ld, n) {
			return false
		}
		invertLower(inv, a, n, w.nb)
		return true
	}
	h := w.split(n)
	if !w.potrf(inv, a, h) {
		return false
	}
	a21, a22 := a.at(h, 0), a.at(h, h)
	w.trsm(inv, a, a21, n-h, h)
	w.cfg.gemm(w.arena, a21, a21, a22, n-h, n-h, h, transB|sub|lower)
	return w.potrf(inv[h*w.nb:], a22, n-h)
}

// invertLower writes the inverse of the n×n lower triangle L into inv
// (row stride ld, zeros above the diagonal), row by row:
// M[i][·] = (e_i − Σ_{k<i} L[i][k]·M[k][·]) / L[i][i].
func invertLower(inv []float32, l mat, n, ld int) {
	for i := 0; i < n; i++ {
		row := inv[i*ld : i*ld+n]
		clear(row)
		for k := 0; k < i; k++ {
			lik := l.p[i*l.ld+k]
			for j, v := range inv[k*ld : k*ld+k+1] {
				row[j] += lik * v
			}
		}
		d := 1 / l.p[i*l.ld+i]
		for j := range row[:i] {
			row[j] *= -d
		}
		row[i] = d
	}
}
