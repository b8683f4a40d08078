package kernels

// The packed micro-kernel engine, parameterized over its blocking
// parameters.  PR 3 introduced the engine with the tile shape and
// k-chunk depth as compile-time constants chosen by a hand-run shootout
// on one container; this file is the same Goto/BLIS decomposition with
// the shape turned into data so a machine profile (profile.go, measured
// by `smpssbench -tune`) can re-block the engine for the host it is
// actually running on.
//
// An engine is a family of register-tile micro-kernels (each a fixed
// mr×nr shape — the shape is the register allocation, so it cannot be a
// runtime loop bound inside the kernel) plus a current configuration:
// which family member to drive, how deep to chunk k (kc), and below
// which block size to delegate to the streaming loops (crossover).
// The driver loops, the packing routines and the edge handling are
// generic over (mr, nr, kc); only the innermost kernel is shape-bound.
//
// Two engines exist: the scalar engine behind the Tuned provider
// (tuned.go) and the AVX2/FMA assembly engine behind the Simd provider
// (simd.go), which degrades to the scalar family when the hardware or
// build lacks the assembly kernels.

import (
	"fmt"
	"sync/atomic"
)

// Params are the tunable blocking parameters of a packed engine: the
// register tile shape (MR×NR), the k-chunk depth KC, and the Crossover
// block size below which the engine delegates to the streaming loops.
type Params struct {
	MR        int `json:"mr"`
	NR        int `json:"nr"`
	KC        int `json:"kc"`
	Crossover int `json:"crossover"`
}

// tileFunc is one register-tile micro-kernel: C ±= Ap·Bp over kk packed
// steps for a full mr×nr tile.  Ap is an mr×kk column-major panel
// (ap[k*mr+r]), Bp a kk×nr row-major panel (bp[k*nr+c]); both are fully
// padded, so the k loop never branches on shape.  The tile is written
// directly to c with row stride ldc — add when !sub, subtract when sub.
type tileFunc func(ap, bp, c []float32, ldc, kk int, sub bool)

// tileKernel binds a micro-kernel to its shape.
type tileKernel struct {
	mr, nr int
	kern   tileFunc
}

// engineConfig is one immutable engine configuration; the engine swaps
// whole configurations atomically so a Configure racing with in-flight
// kernels is safe (each kernel call reads the pointer once).
type engineConfig struct {
	kern      tileKernel
	kc        int
	crossover int
}

// engine drives the packed decomposition for one micro-kernel family.
type engine struct {
	name   string
	family []tileKernel
	cfg    atomic.Pointer[engineConfig]
}

// newEngine builds an engine over the family, configured to defaults.
func newEngine(name string, family []tileKernel, def Params) *engine {
	e := &engine{name: name, family: family}
	if err := e.configure(def); err != nil {
		panic("kernels: bad default engine params: " + err.Error())
	}
	return e
}

// shapes returns the family's candidate (MR, NR) shapes with the
// engine's current KC/Crossover filled in, the tuner's sweep axis.
func (e *engine) shapes() []Params {
	cur := e.cfg.Load()
	out := make([]Params, len(e.family))
	for i, k := range e.family {
		out[i] = Params{MR: k.mr, NR: k.nr, KC: cur.kc, Crossover: cur.crossover}
	}
	return out
}

// params returns the current configuration.
func (e *engine) params() Params {
	c := e.cfg.Load()
	return Params{MR: c.kern.mr, NR: c.kern.nr, KC: c.kc, Crossover: c.crossover}
}

// configure installs p, validating that the shape names an implemented
// family member and the depths are sane.
func (e *engine) configure(p Params) error {
	if p.KC < 1 {
		return fmt.Errorf("kernels: engine %s: kc %d < 1", e.name, p.KC)
	}
	if p.Crossover < 0 {
		return fmt.Errorf("kernels: engine %s: crossover %d < 0", e.name, p.Crossover)
	}
	for _, k := range e.family {
		if k.mr == p.MR && k.nr == p.NR {
			e.cfg.Store(&engineConfig{kern: k, kc: p.KC, crossover: p.Crossover})
			return nil
		}
	}
	return fmt.Errorf("kernels: engine %s: no %d×%d micro-kernel (shapes: %v)",
		e.name, p.MR, p.NR, e.shapeList())
}

// setFamily swaps the micro-kernel family (the Simd engine's forced
// fallback uses it) and re-blocks to the given defaults.
func (e *engine) setFamily(family []tileKernel, def Params) {
	e.family = family
	if err := e.configure(def); err != nil {
		panic("kernels: bad engine family swap: " + err.Error())
	}
}

func (e *engine) shapeList() []string {
	var out []string
	for _, k := range e.family {
		out = append(out, fmt.Sprintf("%dx%d", k.mr, k.nr))
	}
	return out
}

// engines indexes the tunable engine providers by provider name.
var engines = map[string]*engine{}

// EngineProviders lists the provider names backed by a parameterized
// packed engine, in plot order.
func EngineProviders() []string {
	var out []string
	for _, p := range Providers {
		if engines[p.Name] != nil {
			out = append(out, p.Name)
		}
	}
	return out
}

// EngineShapes returns the named engine provider's candidate tile
// shapes (the implemented micro-kernels), each with the current
// KC/Crossover.  Nil for providers without an engine.
func EngineShapes(provider string) []Params {
	e := engines[provider]
	if e == nil {
		return nil
	}
	return e.shapes()
}

// EngineParams returns the named engine provider's current blocking
// parameters.
func EngineParams(provider string) (Params, bool) {
	e := engines[provider]
	if e == nil {
		return Params{}, false
	}
	return e.params(), true
}

// ConfigureEngine installs blocking parameters on the named engine
// provider.  The shape must name an implemented micro-kernel of that
// engine's family (see EngineShapes).
func ConfigureEngine(provider string, p Params) error {
	e := engines[provider]
	if e == nil {
		return fmt.Errorf("kernels: provider %q has no tunable engine (have: %v)",
			provider, EngineProviders())
	}
	return e.configure(p)
}

// --- provider entry points -------------------------------------------

// The ten entry points below are bound into Provider structs as method
// values (engineProvider); the plain ones borrow a pooled scratch, the
// S variants take the executing worker's.  Below the crossover each
// delegates to the Fast streaming loop of the same kernel.

func (e *engine) GemmNN(a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNNFast(a, b, c, m)
		return
	}
	s := AcquireScratch()
	e.square(s, a, b, c, m, 0)
	ReleaseScratch(s)
}

func (e *engine) GemmNT(a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNTFast(a, b, c, m)
		return
	}
	s := AcquireScratch()
	e.square(s, a, b, c, m, transB|sub)
	ReleaseScratch(s)
}

func (e *engine) Syrk(a, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		syrkFast(a, c, m)
		return
	}
	s := AcquireScratch()
	e.square(s, a, a, c, m, transB|sub|lower)
	ReleaseScratch(s)
}

func (e *engine) GemmSub(a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		GemmSubNN(a, b, c, m)
		return
	}
	s := AcquireScratch()
	e.square(s, a, b, c, m, sub)
	ReleaseScratch(s)
}

func (e *engine) GemmNNS(s *Scratch, a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNNFast(a, b, c, m)
		return
	}
	e.square(s, a, b, c, m, 0)
}

func (e *engine) GemmNTS(s *Scratch, a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		gemmNTFast(a, b, c, m)
		return
	}
	e.square(s, a, b, c, m, transB|sub)
}

func (e *engine) SyrkS(s *Scratch, a, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		syrkFast(a, c, m)
		return
	}
	e.square(s, a, a, c, m, transB|sub|lower)
}

func (e *engine) GemmSubS(s *Scratch, a, b, c []float32, m int) {
	if m < e.cfg.Load().crossover {
		GemmSubNN(a, b, c, m)
		return
	}
	e.square(s, a, b, c, m, sub)
}

// engineProvider builds a Provider over the engine: the level-3
// kernels (GemmNN/NT/Sub, Syrk, and the blocked Trsm and Potrf of
// blocked.go) run on the packed micro-kernels; the bandwidth-bound
// level-1/2 sidekicks (Add, Sub, Gemv, Trsv) inherit the Fast loops,
// which packing cannot help.  Callers may override fields afterwards
// (Simd swaps in its FMA Gemv).
func engineProvider(name string, e *engine) Provider {
	engines[name] = e
	return Provider{
		Name:     name,
		GemmNN:   e.GemmNN,
		GemmNT:   e.GemmNT,
		Syrk:     e.Syrk,
		Trsm:     e.Trsm,
		Potrf:    e.Potrf,
		GemmSub:  e.GemmSub,
		Add:      addFast,
		Sub:      subFast,
		Gemv:     gemvFast,
		Trsv:     trsvFast,
		GemmNNS:  e.GemmNNS,
		GemmNTS:  e.GemmNTS,
		SyrkS:    e.SyrkS,
		GemmSubS: e.GemmSubS,
	}
}

// --- the packed decomposition ----------------------------------------

// mat is a strided row-major view: element (i, j) is p[i*ld+j].
type mat struct {
	p  []float32
	ld int
}

// at returns the view whose origin is element (i, j) of m.
func (m mat) at(i, j int) mat { return mat{m.p[i*m.ld+j:], m.ld} }

// gemmMode selects the driver's variant of C ±= A·op(B).
type gemmMode uint8

const (
	transB gemmMode = 1 << iota // op(B) = Bᵀ: B is stored cols×k
	sub                         // C -= A·op(B) instead of C +=
	lower                       // C is square: update only its lower triangle
)

// square runs the driver on whole m×m tiles, the shape of every
// provider-level GEMM and of Syrk (B = A, lower).
func (e *engine) square(s *Scratch, a, b, c []float32, m int, mode gemmMode) {
	cfg := e.cfg.Load()
	cfg.gemm(s.ensure(cfg.gemmArena(m, m)), mat{a, m}, mat{b, m}, mat{c, m}, m, m, m, mode)
}

// panelLens returns the packed lengths of one k-chunk of a cols-wide
// op(B) and of one A row panel, for a k-deep product.
func (cfg *engineConfig) panelLens(cols, k int) (bpLen, apLen int) {
	mr, nr := cfg.kern.mr, cfg.kern.nr
	kcap := min(cfg.kc, k)
	return (cols + nr - 1) / nr * nr * kcap, mr * kcap
}

// gemmArena is the arena length gemm needs for a cols-wide C and a
// k-deep product: the packed B chunk, one packed A panel and the edge
// tile.
func (cfg *engineConfig) gemmArena(cols, k int) int {
	bpLen, apLen := cfg.panelLens(cols, k)
	return bpLen + apLen + cfg.kern.mr*cfg.kern.nr
}

// gemm is the engine's one driver: C[rows×cols] ±= A[rows×k]·op(B) on
// strided views, with op(B) = B (k×cols) or Bᵀ (B stored cols×k).
// Per k-chunk it packs op(B) once, then per mr-row block packs A (an
// mr×kk panel, ap[k*mr+r] = a[i0+r][k0+k]) and runs the micro-kernel
// across the column panels.  In lower mode only tiles that intersect
// the lower triangle are visited and the write-back of
// diagonal-crossing ones is masked, so the strict upper triangle of C
// is neither read nor written.  arena must hold gemmArena(cols, k)
// floats and alias none of the operands.
func (cfg *engineConfig) gemm(arena []float32, a, b, c mat, rows, cols, k int, mode gemmMode) {
	kern := cfg.kern
	mr, nr, kcd := kern.mr, kern.nr, cfg.kc
	bpLen, apLen := cfg.panelLens(cols, k)
	bp := arena[:bpLen:bpLen]
	ap := arena[bpLen : bpLen+apLen : bpLen+apLen]
	tile := arena[bpLen+apLen : bpLen+apLen+mr*nr]
	for k0 := 0; k0 < k; k0 += kcd {
		kk := min(kcd, k-k0)
		if mode&transB != 0 {
			packBT(bp, b, cols, k0, kk, nr)
		} else {
			packBN(bp, b, cols, k0, kk, nr)
		}
		for i0 := 0; i0 < rows; i0 += mr {
			r := min(mr, rows-i0)
			packLanes(ap, a, i0, r, k0, kk, mr)
			jend := cols
			if mode&lower != 0 {
				jend = min(cols, i0+r) // first column on or below the last row
			}
			for j0 := 0; j0 < jend; j0 += nr {
				n := min(nr, cols-j0)
				// Position (i, j) of the tile is written iff i+diag ≥ j.
				diag := nr
				if mode&lower != 0 {
					diag = i0 - j0
				}
				ct, bpj := c.p[i0*c.ld+j0:], bp[j0*kk:]
				if r == mr && n == nr && diag >= nr-1 {
					kern.kern(ap, bpj, ct, c.ld, kk, mode&sub != 0)
				} else {
					maskedTile(kern, ap, bpj, tile, ct, c.ld, kk, r, n, diag, mode&sub != 0)
				}
			}
		}
	}
}

// maskedTile runs the micro-kernel for a tile that is partial (an
// edge) or crosses the diagonal in lower mode: the kernel always
// computes a full mr×nr product, so it accumulates into a zeroed
// scratch tile (ldc = nr) and the write-back into C is masked to
// rows×cols and to positions on or below the diagonal (r+diag ≥ j).
// Such tiles are O(m²) of an O(m³) computation; the detour through the
// scratch tile keeps every kernel's k loop shape-free.
func maskedTile(k tileKernel, ap, bp, tile, c []float32, ldc, kk, rows, cols, diag int, sub bool) {
	clear(tile)
	k.kern(ap, bp, tile, k.nr, kk, false)
	for r := 0; r < rows; r++ {
		n := min(cols, r+diag+1)
		if n <= 0 {
			continue // row entirely above the diagonal
		}
		cr, tr := c[r*ldc:r*ldc+n], tile[r*k.nr:r*k.nr+n]
		if sub {
			for j, v := range tr {
				cr[j] -= v
			}
		} else {
			for j, v := range tr {
				cr[j] += v
			}
		}
	}
}

// packLanes is the engine's transposing pack: n rows of src starting at
// row first, over columns k0..k0+kk-1, become the lanes of a kk×width
// panel — dst[k*width+l] = src[first+l][k0+k] — with lanes n..width-1
// zero-filled so the micro-kernel always consumes a full panel.  Each
// lane streams one contiguous row; lanes go two per pass, which halves
// the strided-store passes over dst.
func packLanes(dst []float32, src mat, first, n, k0, kk, width int) {
	dst = dst[: kk*width : kk*width]
	row := func(l int) []float32 {
		o := (first+l)*src.ld + k0
		return src.p[o : o+kk]
	}
	l := 0
	for ; l+1 < n; l += 2 {
		s0, s1 := row(l), row(l+1)
		o := l
		for k, v := range s0 {
			dst[o], dst[o+1] = v, s1[k]
			o += width
		}
	}
	if l < n {
		o := l
		for _, v := range row(l) {
			dst[o] = v
			o += width
		}
	}
	for l = n; l < width; l++ {
		for o := l; o < len(dst); o += width {
			dst[o] = 0
		}
	}
}

// packBN packs the k-chunk of B (k×cols) into column panels of nr:
// bp[jp*kk*nr + k*nr + c] = b[k0+k][jp*nr+c], edge columns zero-filled.
func packBN(bp []float32, b mat, cols, k0, kk, nr int) {
	for j0 := 0; j0 < cols; j0 += nr {
		n := min(nr, cols-j0)
		dst := bp[j0*kk : (j0+nr)*kk : (j0+nr)*kk]
		for k := 0; k < kk; k++ {
			row := dst[k*nr : (k+1)*nr]
			src := b.p[(k0+k)*b.ld+j0 : (k0+k)*b.ld+j0+n]
			clear(row[copy(row, src):])
		}
	}
}

// packBT packs the k-chunk of Bᵀ (B stored cols×k) into column panels
// of nr: column j of op(B) is row j of B, so panel jp is the lanes
// jp*nr.. of B — bp[jp*kk*nr + k*nr + c] = b[jp*nr+c][k0+k].
func packBT(bp []float32, b mat, cols, k0, kk, nr int) {
	for j0 := 0; j0 < cols; j0 += nr {
		packLanes(bp[j0*kk:], b, j0, min(nr, cols-j0), k0, kk, nr)
	}
}
