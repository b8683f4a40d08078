package kernels

// Provider-level tests of Trsm and Potrf: every provider against Ref
// across the blocked engine's structural boundaries, the failure
// contract of Potrf past the first panel, and the untouched strict
// upper triangle.

import (
	"math"
	"math/rand"
	"testing"
)

// factorSizes crosses the edges of mr (6, 8), nr and the panel width
// (16), a partial last panel, uneven recursion splits, and the default
// kc (200 > 192 stays one chunk; the shape sweep below re-blocks kc).
var factorSizes = []int{1, 2, 5, 15, 16, 17, 24, 31, 33, 64, 100, 192, 200}

// factorTol scales with the summation length like tolFor, ten times
// tighter: the operands are Cholesky factors of well-conditioned blocks
// with O(1) entries, where every provider lands within 1e-8·m of Ref.
func factorTol(m int) float64 { return tolFor(m) / 10 }

// cholFactor returns the Ref Cholesky factor of a fresh SPD block, its
// strict upper triangle filled with NaN: no Trsm may read it.
func cholFactor(t *testing.T, m int, rng *rand.Rand) []float32 {
	t.Helper()
	l := spdBlock(m, rng)
	if !Ref.Potrf(l, m) {
		t.Fatalf("m=%d: Ref.Potrf failed on an SPD block", m)
	}
	poisonUpper(l, m)
	return l
}

func poisonUpper(a []float32, m int) {
	nan := float32(math.NaN())
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			a[i*m+j] = nan
		}
	}
}

// strictDiff is MaxAbsDiff (or, with lowerOnly, LowerMaxAbsDiff) that
// reports a NaN on either side as +Inf; those two skip NaN differences,
// which would let a NaN read from above a diagonal pass.
func strictDiff(want, got []float32, m int, lowerOnly bool) float64 {
	var worst float64
	for i := 0; i < m; i++ {
		n := m
		if lowerOnly {
			n = i + 1
		}
		for j := 0; j < n; j++ {
			d := math.Abs(float64(want[i*m+j]) - float64(got[i*m+j]))
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			worst = max(worst, d)
		}
	}
	return worst
}

// checkTrsm compares p.Trsm with Ref.Trsm on one size.
func checkTrsm(t *testing.T, p Provider, m int, rng *rand.Rand) {
	t.Helper()
	l := cholFactor(t, m, rng)
	want := randBlock(m, rng)
	got := append([]float32(nil), want...)
	Ref.Trsm(l, want, m)
	p.Trsm(l, got, m)
	if d := strictDiff(want, got, m, false); d > factorTol(m) {
		t.Fatalf("%s Trsm m=%d: differs from Ref by %g", p.Name, m, d)
	}
}

// checkPotrf compares p.Potrf with Ref.Potrf on one size and asserts
// the strict upper triangle is left bit-for-bit as it was.
func checkPotrf(t *testing.T, p Provider, m int, rng *rand.Rand) {
	t.Helper()
	want := spdBlock(m, rng)
	poisonUpper(want, m)
	got := append([]float32(nil), want...)
	if !Ref.Potrf(want, m) || !p.Potrf(got, m) {
		t.Fatalf("%s Potrf m=%d: failed on an SPD block", p.Name, m)
	}
	if d := strictDiff(want, got, m, true); d > factorTol(m) {
		t.Fatalf("%s Potrf m=%d: lower triangle differs from Ref by %g", p.Name, m, d)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if !math.IsNaN(float64(got[i*m+j])) {
				t.Fatalf("%s Potrf m=%d: wrote above the diagonal at (%d,%d)", p.Name, m, i, j)
			}
		}
	}
}

func TestTrsmProvidersMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, p := range Providers {
		for _, m := range factorSizes {
			checkTrsm(t, p, m, rng)
		}
	}
}

func TestPotrfProvidersMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, p := range Providers {
		for _, m := range factorSizes {
			checkPotrf(t, p, m, rng)
		}
	}
}

// TestPotrfRejectsLatePivot plants the defect in a panel after the
// first, where a blocked factorization meets it only after trailing
// updates: a non-positive pivot, a NaN pivot, and a NaN below the
// diagonal (which the update carries into a later pivot).
func TestPotrfRejectsLatePivot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	nan := float32(math.NaN())
	for _, p := range Providers {
		for _, m := range []int{40, 100, 192} {
			spd := spdBlock(m, rng)
			for name, plant := range map[string]func(a []float32){
				"negative pivot":   func(a []float32) { a[(m-3)*m+m-3] = -1 },
				"zero pivot row":   func(a []float32) { clear(a[35*m : 35*m+36]) },
				"NaN pivot":        func(a []float32) { a[20*m+20] = nan },
				"NaN off diagonal": func(a []float32) { a[(m-1)*m+17] = nan },
			} {
				a := append([]float32(nil), spd...)
				plant(a)
				if p.Potrf(a, m) {
					t.Fatalf("%s Potrf m=%d: accepted a block with a %s", p.Name, m, name)
				}
			}
		}
	}
}

// TestBlockedAcrossShapes re-blocks each engine to every micro-kernel
// shape of its family, with a kc shallower than the panel splits (so
// the rectangular driver runs multi-chunk) and one deeper, and holds
// Trsm and Potrf to Ref on sizes that are and are not panel multiples.
func TestBlockedAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, name := range EngineProviders() {
		orig, _ := EngineParams(name)
		defer ConfigureEngine(name, orig)
		for _, shape := range EngineShapes(name) {
			for _, kc := range []int{8, 40, 256} {
				shape.KC, shape.Crossover = kc, 0
				if err := ConfigureEngine(name, shape); err != nil {
					t.Fatal(err)
				}
				for _, m := range []int{3, 16, 50, 97, 128} {
					checkTrsm(t, ByName(name), m, rng)
					checkPotrf(t, ByName(name), m, rng)
				}
			}
		}
	}
}
