package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tunedSizes crosses the engine's structural boundaries: below and at
// the pack crossover, multiples of mr/nr, every misalignment class
// mod 4, one size above a kc chunk, and one size misaligned above kc.
var tunedSizes = []int{1, 2, 3, 5, 8, 16, 31, 63, 64, 65, 66, 67, 96, 100, 129, 160, 257, 260}

// tolFor scales the comparison tolerance with the k-summation length:
// the engine and the textbook loops accumulate in different orders.
func tolFor(m int) float64 { return 1e-5 * float64(m+8) }

func TestTunedGemmNNMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range tunedSizes {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNN(a, b, c1, m)
		Tuned.GemmNN(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("m=%d: Tuned GemmNN differs from Ref by %g", m, d)
		}
	}
}

func TestTunedGemmNTMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range tunedSizes {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNT(a, b, c1, m)
		Tuned.GemmNT(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("m=%d: Tuned GemmNT differs from Ref by %g", m, d)
		}
	}
}

func TestTunedGemmSubMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, m := range tunedSizes {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmSub(a, b, c1, m)
		Tuned.GemmSub(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("m=%d: Tuned GemmSub differs from Ref by %g", m, d)
		}
	}
}

// TestTunedSyrkMatchesRef also asserts the strict upper triangle is
// untouched: the engine must skip above-diagonal tiles entirely and
// mask diagonal-crossing ones.
func TestTunedSyrkMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range tunedSizes {
		a := randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.Syrk(a, c1, m)
		Tuned.Syrk(a, c2, m)
		if d := LowerMaxAbsDiff(c1, c2, m); d > tolFor(m) {
			t.Fatalf("m=%d: Tuned Syrk lower triangle differs from Ref by %g", m, d)
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if c2[i*m+j] != c1[i*m+j] {
					t.Fatalf("m=%d: Tuned Syrk wrote above the diagonal at (%d,%d)", m, i, j)
				}
			}
		}
	}
}

// TestTunedScratchReuseAcrossShapes drives one Scratch through
// alternating shapes and kernels, the reuse pattern of a per-worker
// instance executing a mixed task stream.
func TestTunedScratchReuseAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := NewScratch()
	for _, m := range []int{96, 64, 129, 64, 257, 96} {
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNN(a, b, c1, m)
		s.GemmNN(a, b, c2, m)
		if d := MaxAbsDiff(c1, c2); d > tolFor(m) {
			t.Fatalf("m=%d: scratch-path GemmNN differs from Ref by %g", m, d)
		}
		c1, c2 = randBlock(m, rng), nil
		c2 = append([]float32(nil), c1...)
		Ref.Syrk(a, c1, m)
		s.Syrk(a, c2, m)
		if d := LowerMaxAbsDiff(c1, c2, m); d > tolFor(m) {
			t.Fatalf("m=%d: scratch-path Syrk differs from Ref by %g", m, d)
		}
	}
}

// TestTunedGemmQuickProperty fuzzes random sizes (aligned and not)
// against the reference on all three engine kernels.
func TestTunedGemmQuickProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(140)
		a, b := randBlock(m, rng), randBlock(m, rng)
		c1 := randBlock(m, rng)
		c2 := append([]float32(nil), c1...)
		Ref.GemmNN(a, b, c1, m)
		Tuned.GemmNN(a, b, c2, m)
		if MaxAbsDiff(c1, c2) > tolFor(m) {
			return false
		}
		Ref.GemmNT(a, b, c1, m)
		Tuned.GemmNT(a, b, c2, m)
		if MaxAbsDiff(c1, c2) > tolFor(m) {
			return false
		}
		Ref.Syrk(a, c1, m)
		Tuned.Syrk(a, c2, m)
		return LowerMaxAbsDiff(c1, c2, m) <= tolFor(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTunedSteadyStateAllocFree pins the acceptance criterion: after
// one warm-up call has populated the scratch pool, the packed path
// performs zero allocations per invocation on every engine kernel,
// the blocked Trsm and Potrf included.
func TestTunedSteadyStateAllocFree(t *testing.T) {
	m := 128 // above the crossover, misses Fast's delegation
	rng := rand.New(rand.NewSource(15))
	a, b, c := randBlock(m, rng), randBlock(m, rng), make([]float32, m*m)
	Tuned.GemmNN(a, b, c, m) // warm the pool
	if n := testing.AllocsPerRun(20, func() { Tuned.GemmNN(a, b, c, m) }); n != 0 {
		t.Fatalf("pooled GemmNN allocates %v/op in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { Tuned.GemmNT(a, b, c, m) }); n != 0 {
		t.Fatalf("pooled GemmNT allocates %v/op in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { Tuned.Syrk(a, c, m) }); n != 0 {
		t.Fatalf("pooled Syrk allocates %v/op in steady state, want 0", n)
	}
	s := NewScratch()
	s.GemmNN(a, b, c, m) // grow the per-worker arena once
	if n := testing.AllocsPerRun(20, func() { s.GemmNN(a, b, c, m) }); n != 0 {
		t.Fatalf("per-worker GemmNN allocates %v/op in steady state, want 0", n)
	}
	factorAllocFree(t, Tuned, m, rng)
}

// TestScratchPoolRecyclesAcrossClasses exercises the size-class walk:
// growing a scratch retires its old arena into the smaller class, and
// re-acquiring that class is served from the free list.
func TestScratchPoolRecyclesAcrossClasses(t *testing.T) {
	s := NewScratch()
	small := s.ensure(1000)
	if len(small) != 1000 || cap(s.buf) != 1024 {
		t.Fatalf("ensure(1000): len=%d cap=%d, want 1000/1024", len(small), cap(s.buf))
	}
	s.ensure(5000) // retires the 1024-arena to its class list
	h0, m0 := ScratchPoolStats()
	s2 := NewScratch()
	s2.ensure(700) // must hit the recycled 1024-arena
	h1, m1 := ScratchPoolStats()
	if h1 != h0+1 || m1 != m0 {
		t.Fatalf("recycled-class acquire: hits %d→%d misses %d→%d, want one hit and no miss", h0, h1, m0, m1)
	}
}
