package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hypermatrix"
	"repro/internal/kernels"
	"repro/internal/linalg"
)

// workload is one set of inputs plus the task program that consumes
// them.  One instance lives on one long-lived core.Runtime; the harness
// calls prepare/run/check once per repetition and times run only.
type workload interface {
	// prepare restores the inputs for the next repetition (untimed).
	prepare()
	// run submits the whole task program and drains it: first Submit →
	// Barrier returned.  It returns the number of refused submissions.
	run(tr *tracer) (refused int64, err error)
	// check verifies the last run's outputs against the oracle, which
	// shares no code with the runtime (untimed).  d is the change of the
	// runtime's counters over the run.
	check(d core.Stats) error
	// sequential runs the same program as a plain sequential loop on
	// fresh inputs and returns how long it took.
	sequential() time.Duration
	// runtime exposes the instance's runtime for Stats and Close.
	runtime() *core.Runtime
}

// spec names a workload and says why it exists; the names are frozen
// because BENCHMARK.json and every later performance claim cite them.
type spec struct {
	name string
	why  string
	// ownsBodies: the benchmark wraps this workload's task bodies (or
	// the kernels they call) with spans, so body time is measured, not
	// estimated from the sequential run.
	ownsBodies bool
	build      func(seed int64, procs int) workload
}

var specs = []spec{
	{"cholesky_tiles", "Control: >=95% of worker time is inside kernels, so core/deps/graph/sched changes must show no change here and only a kernels change shows.", true, newCholesky},
	{"multisort_regions", "Memory-bound mid-grain recursion (paper Fig. 14); the only workload through deps region analysis and region waits, with every ready task entering via the injector (PushMain).", false, newMultisort},
	{"nqueens_rename", "The paper's overhead yardstick (Fig. 15/16): fine tasks, Value args, submitter-bound, renaming of a 52-byte board on the critical path.", false, newNQueens},
	{"chain_null", "Zero parallelism, one successor per completion: the pure per-task latency path submit-analyse-insert-push-wake-exec-complete; the per-layer sum reconciles here.", true, newChain},
	{"fanout_null", "Same layers as chain_null used wide: two-argument AnalyzeBatch, readers beside writers, steal and park traffic; catches a serial hand-off gain that costs stealing.", true, newFanout},
	{"rename_churn", "Writes over live reads on 16 KiB objects: rename acquire/release, Storage pool hit rate, copy vs no-copy renames; the rename count is exact.", true, newChurn},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// host is the runtime every workload instance owns.
type host struct{ rt *core.Runtime }

func newHost(procs int) host { return host{core.New(core.Config{Workers: procs})} }

func (h host) runtime() *core.Runtime { return h.rt }

// drain is the timed Barrier after the last submit.
func (h host) drain(tr *tracer) error {
	s := tr.begin()
	err := h.rt.Barrier()
	tr.end(spanBarrier, s)
	return err
}

// ---------------------------------------------------------------------
// 1. cholesky_tiles

const (
	cholTiles = 16  // tiles per side
	cholTile  = 192 // tile dimension: a 3072² matrix, 816 tasks of ~0.5 ms
	// cholTol bounds the relative residual of the probe below.
	cholTol = 1e-3
)

// providerName is the kernels provider the benchmark asks for; the Name
// ByName actually returned is recorded in the report.
const providerName = "simd"

type cholesky struct {
	host
	pristine, work *hypermatrix.Matrix
	al             *linalg.Algos
	p              kernels.Provider
	tr             *tracer
	// The oracle: probe vector x and A·x from the untouched input.
	x, ax []float64
}

func newCholesky(seed int64, procs int) workload {
	w := &cholesky{host: newHost(procs)}
	rng := rand.New(rand.NewSource(seed))
	dim := cholTiles * cholTile
	// Symmetric with a dominant diagonal, hence positive definite, and
	// O(dim²) to generate.
	flat := make([]float32, dim*dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			v := rng.Float32()*2 - 1
			flat[i*dim+j], flat[j*dim+i] = v, v
		}
		flat[i*dim+i] = float32(dim) + rng.Float32()
	}
	w.x = make([]float64, dim)
	for i := range w.x {
		w.x[i] = rng.Float64()*2 - 1
	}
	w.ax = make([]float64, dim)
	for i := 0; i < dim; i++ {
		var s float64
		for j, v := range flat[i*dim : (i+1)*dim] {
			s += float64(v) * w.x[j]
		}
		w.ax[i] = s
	}
	w.pristine = hypermatrix.FromFlat(flat, cholTiles, cholTile)
	w.work = hypermatrix.New(cholTiles, cholTile)
	w.p = kernels.ByName(providerName)
	w.al = linalg.NewOn(w.rt.Context(), w.traced(w.p), cholTile)
	return w
}

// traced wraps the provider's kernels used by Cholesky with spans.  On
// the untraced pass w.tr is nil and each wrapper is one extra call.
func (w *cholesky) traced(p kernels.Provider) kernels.Provider {
	q := p
	q.GemmNT = func(a, b, c []float32, m int) {
		s := w.tr.begin()
		p.GemmNT(a, b, c, m)
		w.tr.end(spanGemm, s)
	}
	if p.GemmNTS != nil {
		q.GemmNTS = func(sc *kernels.Scratch, a, b, c []float32, m int) {
			s := w.tr.begin()
			p.GemmNTS(sc, a, b, c, m)
			w.tr.end(spanGemm, s)
		}
	}
	q.Syrk = func(a, c []float32, m int) {
		s := w.tr.begin()
		p.Syrk(a, c, m)
		w.tr.end(spanSyrk, s)
	}
	if p.SyrkS != nil {
		q.SyrkS = func(sc *kernels.Scratch, a, c []float32, m int) {
			s := w.tr.begin()
			p.SyrkS(sc, a, c, m)
			w.tr.end(spanSyrk, s)
		}
	}
	q.Trsm = func(l, b []float32, m int) {
		s := w.tr.begin()
		p.Trsm(l, b, m)
		w.tr.end(spanTrsm, s)
	}
	q.Potrf = func(a []float32, m int) bool {
		s := w.tr.begin()
		ok := p.Potrf(a, m)
		w.tr.end(spanPotrf, s)
		return ok
	}
	return q
}

func (w *cholesky) prepare() {
	for i := 0; i < cholTiles; i++ {
		for j := 0; j <= i; j++ {
			copy(w.work.Block(i, j), w.pristine.Block(i, j))
		}
	}
}

func (w *cholesky) run(tr *tracer) (int64, error) {
	w.tr = tr
	s := tr.begin()
	w.al.CholeskyDense(w.work)
	tr.end(spanSubmit, s)
	return 0, w.drain(tr)
}

// check probes the factor with one seed-derived vector:
// ‖L(Lᵀx) − Ax‖₂ / ‖Ax‖₂ ≤ cholTol, in float64, against A·x computed
// from the untouched input.  Forming L·Lᵀ would cost more than the
// factorization; the probe is O(dim²) and misses a wrong factor only if
// x happens to lie in the error's null space.
func (w *cholesky) check(core.Stats) error {
	dim := cholTiles * cholTile
	y := make([]float64, dim) // Lᵀx
	w.factorRows(func(row, col int, vals []float32) {
		for c, v := range vals {
			y[col+c] += float64(v) * w.x[row]
		}
	})
	z := make([]float64, dim) // L·y
	w.factorRows(func(row, col int, vals []float32) {
		for c, v := range vals {
			z[row] += float64(v) * y[col+c]
		}
	})
	var num, den float64
	for i, ax := range w.ax {
		num += (z[i] - ax) * (z[i] - ax)
		den += ax * ax
	}
	if rel := math.Sqrt(num / den); !(rel <= cholTol) {
		return fmt.Errorf("cholesky residual %.3g exceeds %.0e", rel, cholTol)
	}
	return nil
}

// factorRows visits the lower-triangular factor tile row by tile row:
// vals are the entries of matrix row `row` starting at column col.  The
// upper part of a diagonal tile is unspecified and skipped.
func (w *cholesky) factorRows(f func(row, col int, vals []float32)) {
	m := cholTile
	for bi := 0; bi < cholTiles; bi++ {
		for bj := 0; bj <= bi; bj++ {
			blk := w.work.Block(bi, bj)
			for r := 0; r < m; r++ {
				cols := m
				if bi == bj {
					cols = r + 1
				}
				f(bi*m+r, bj*m, blk[r*m:r*m+cols])
			}
		}
	}
}

// sequential is the left-looking tiled factorization of paper Fig. 4 as
// a plain loop over the same kernels.
func (w *cholesky) sequential() time.Duration {
	w.prepare()
	a, p, m := w.work, w.p, cholTile
	start := time.Now()
	for j := 0; j < cholTiles; j++ {
		for k := 0; k < j; k++ {
			for i := j + 1; i < cholTiles; i++ {
				p.GemmNT(a.Block(i, k), a.Block(j, k), a.Block(i, j), m)
			}
		}
		for i := 0; i < j; i++ {
			p.Syrk(a.Block(j, i), a.Block(j, j), m)
		}
		if !p.Potrf(a.Block(j, j), m) {
			panic("benchmark: generated matrix is not positive definite")
		}
		for i := j + 1; i < cholTiles; i++ {
			p.Trsm(a.Block(j, j), a.Block(i, j), m)
		}
	}
	return time.Since(start)
}

// ---------------------------------------------------------------------
// 2. multisort_regions

// sortKeys is 4 Mi int64 keys: 32 MiB of data plus 32 MiB of merge
// buffer, several times any last-level cache this runs on.
const sortKeys = 4 << 20

type multisort struct {
	host
	input, data []int64
	sum, mix    uint64 // multiset checksum of input
}

func newMultisort(seed int64, procs int) workload {
	w := &multisort{host: newHost(procs)}
	rng := rand.New(rand.NewSource(seed))
	w.input = make([]int64, sortKeys)
	for i := range w.input {
		w.input[i] = rng.Int63()
	}
	w.data = make([]int64, sortKeys)
	w.sum, w.mix = multiset(w.input)
	return w
}

// multiset returns two order-independent checksums of keys.
func multiset(keys []int64) (sum, mix uint64) {
	for _, k := range keys {
		u := uint64(k)
		sum += u
		mix += (u ^ u>>31) * 0x9E3779B97F4A7C15
	}
	return sum, mix
}

func (w *multisort) prepare() { copy(w.data, w.input) }

func (w *multisort) run(tr *tracer) (int64, error) {
	// The driver submits, waits on regions and barriers internally; from
	// outside it is one span, and the Barrier below finds nothing left.
	s := tr.begin()
	err := apps.MultisortSMPSs(w.rt.Context(), w.data, apps.DefaultSortConfig)
	tr.end(spanSubmit, s)
	if err != nil {
		return 0, err
	}
	return 0, w.drain(tr)
}

func (w *multisort) check(core.Stats) error {
	for i := 1; i < len(w.data); i++ {
		if w.data[i-1] > w.data[i] {
			return fmt.Errorf("multisort output not sorted at index %d", i)
		}
	}
	if sum, mix := multiset(w.data); sum != w.sum || mix != w.mix {
		return fmt.Errorf("multisort output is not a permutation of the input")
	}
	return nil
}

func (w *multisort) sequential() time.Duration {
	w.prepare()
	start := time.Now()
	apps.MultisortSeq(w.data, apps.DefaultSortConfig)
	return time.Since(start)
}

// ---------------------------------------------------------------------
// 3. nqueens_rename

const (
	queensN         = 13
	queensSolutions = 73712
)

type nqueens struct {
	host
	got int64
}

// newNQueens ignores the seed: the board size is the whole input.
func newNQueens(_ int64, procs int) workload { return &nqueens{host: newHost(procs)} }

func (w *nqueens) prepare() { w.got = 0 }

func (w *nqueens) run(tr *tracer) (int64, error) {
	s := tr.begin()
	got, err := apps.NQueensSMPSs(w.rt.Context(), queensN)
	tr.end(spanSubmit, s)
	if err != nil {
		return 0, err
	}
	w.got = got
	return 0, w.drain(tr)
}

func (w *nqueens) check(core.Stats) error {
	if w.got != queensSolutions {
		return fmt.Errorf("nqueens(%d) = %d, want %d", queensN, w.got, queensSolutions)
	}
	return nil
}

func (w *nqueens) sequential() time.Duration {
	start := time.Now()
	w.got = apps.NQueensSeq(queensN)
	return time.Since(start)
}
