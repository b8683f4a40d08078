package linalg

import (
	"repro/internal/core"
	"repro/internal/hypermatrix"
)

// CholeskyDense submits the left-looking in-place Cholesky decomposition
// of Fig. 4 on a dense hyper-matrix (lower triangle):
//
//	for j:
//	  for k < j, i > j:  sgemm_t(A[i][k], A[j][k], A[i][j])
//	  for i < j:         ssyrk_t(A[j][i], A[j][j])
//	  spotrf_t(A[j][j])
//	  for i > j:         strsm_t(A[j][j], A[i][j])
//
// The dependency complexity is high even for few blocks (Fig. 5 shows
// the 6×6 graph: 56 tasks), and the runtime extracts all of it.  Each
// j-step's tasks are submitted as one batch, so the O(n²) inner loops
// enter the dependency tracker through the amortized Batch path.
func (al *Algos) CholeskyDense(a *hypermatrix.Matrix) {
	n := a.N
	b := al.batch
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			for i := j + 1; i < n; i++ {
				b.Add(al.sgemmNT,
					core.In(a.Block(i, k)),
					core.In(a.Block(j, k)),
					core.InOut(a.Block(i, j)))
			}
		}
		for i := 0; i < j; i++ {
			b.Add(al.ssyrk,
				core.In(a.Block(j, i)),
				core.InOut(a.Block(j, j)))
		}
		b.Add(al.spotrf, core.InOut(a.Block(j, j)))
		for i := j + 1; i < n; i++ {
			b.Add(al.strsm,
				core.In(a.Block(j, j)),
				core.InOut(a.Block(i, j)))
		}
		flush(b)
	}
}

// CholeskyFlat factors a flat dim×dim SPD matrix (dim = n·m) in place
// through on-demand hyper-matrix copies — the exact program of Fig. 9:
// the dense Fig. 4 code with a get_block_once before every block access
// and a final copy-back phase.  Only the lower triangle is referenced
// and written back.
func (al *Algos) CholeskyFlat(aflat []float32, n int) {
	dim := n * al.m
	a := hypermatrix.NewSparse(n, al.m)
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			for i := j + 1; i < n; i++ {
				al.getBlockOnce(i, k, aflat, dim, a)
				al.getBlockOnce(j, k, aflat, dim, a)
				al.getBlockOnce(i, j, aflat, dim, a)
				al.submit(al.sgemmNT,
					core.In(a.Block(i, k)),
					core.In(a.Block(j, k)),
					core.InOut(a.Block(i, j)))
			}
		}
		for i := 0; i < j; i++ {
			al.getBlockOnce(j, i, aflat, dim, a)
			al.getBlockOnce(j, j, aflat, dim, a)
			al.submit(al.ssyrk,
				core.In(a.Block(j, i)),
				core.InOut(a.Block(j, j)))
		}
		al.getBlockOnce(j, j, aflat, dim, a)
		al.submit(al.spotrf, core.InOut(a.Block(j, j)))
		for i := j + 1; i < n; i++ {
			al.getBlockOnce(i, j, aflat, dim, a)
			al.submit(al.strsm,
				core.In(a.Block(j, j)),
				core.InOut(a.Block(i, j)))
		}
	}
	al.putBackAll(a, aflat, dim)
}

// LU submits a tiled right-looking LU decomposition without pivoting on
// a dense hyper-matrix, the other factorization the paper presents as
// naturally blockable (§IV):
//
//	for k:
//	  sgetrf_t(A[k][k])
//	  for j > k: strsm_ll_t(A[k][k], A[k][j])   // row panel
//	  for i > k: strsm_ru_t(A[k][k], A[i][k])   // column panel
//	  for i, j > k: sgemm_sub_t(A[i][k], A[k][j], A[i][j])
func (al *Algos) LU(a *hypermatrix.Matrix) {
	n := a.N
	b := al.batch
	for k := 0; k < n; k++ {
		b.Add(al.sgetrf, core.InOut(a.Block(k, k)))
		for j := k + 1; j < n; j++ {
			b.Add(al.strsmLL,
				core.In(a.Block(k, k)),
				core.InOut(a.Block(k, j)))
		}
		for i := k + 1; i < n; i++ {
			b.Add(al.strsmRU,
				core.In(a.Block(k, k)),
				core.InOut(a.Block(i, k)))
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				b.Add(al.sgemmSB,
					core.In(a.Block(i, k)),
					core.In(a.Block(k, j)),
					core.InOut(a.Block(i, j)))
			}
		}
		flush(b)
	}
}
