package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"
)

const testM = 24

func randBlock(m int, rng *rand.Rand) []float32 {
	b := make([]float32, m*m)
	for i := range b {
		b[i] = rng.Float32()*2 - 1
	}
	return b
}

func spdBlock(m int, rng *rand.Rand) []float32 {
	b := randBlock(m, rng)
	a := make([]float32, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var s float32
			for k := 0; k < m; k++ {
				s += b[i*m+k] * b[j*m+k]
			}
			a[i*m+j] = s / float32(m)
			if i == j {
				a[i*m+j] += 1
			}
		}
	}
	return a
}

func TestGemmNNProvidersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randBlock(testM, rng), randBlock(testM, rng)
	c1 := randBlock(testM, rng)
	c2 := append([]float32(nil), c1...)
	Ref.GemmNN(a, b, c1, testM)
	Fast.GemmNN(a, b, c2, testM)
	if d := MaxAbsDiff(c1, c2); d > 1e-4 {
		t.Fatalf("providers disagree on GemmNN by %g", d)
	}
}

func TestGemmNTProvidersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randBlock(testM, rng), randBlock(testM, rng)
	c1 := randBlock(testM, rng)
	c2 := append([]float32(nil), c1...)
	Ref.GemmNT(a, b, c1, testM)
	Fast.GemmNT(a, b, c2, testM)
	if d := MaxAbsDiff(c1, c2); d > 1e-4 {
		t.Fatalf("providers disagree on GemmNT by %g", d)
	}
}

func TestGemmNNIdentity(t *testing.T) {
	m := 8
	id := make([]float32, m*m)
	for i := 0; i < m; i++ {
		id[i*m+i] = 1
	}
	rng := rand.New(rand.NewSource(3))
	a := randBlock(m, rng)
	c := make([]float32, m*m)
	Fast.GemmNN(a, id, c, m)
	if d := MaxAbsDiff(a, c); d > 1e-6 {
		t.Fatalf("A·I differs from A by %g", d)
	}
}

func TestGemmNTIsTransposedMultiply(t *testing.T) {
	m := 8
	rng := rand.New(rand.NewSource(4))
	a, b := randBlock(m, rng), randBlock(m, rng)
	// C1 = -A·Bᵀ via GemmNT from zero.
	c1 := make([]float32, m*m)
	Fast.GemmNT(a, b, c1, m)
	// C2 = A·(Bᵀ) via GemmNN with an explicitly transposed B.
	bt := make([]float32, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			bt[i*m+j] = b[j*m+i]
		}
	}
	c2 := make([]float32, m*m)
	Fast.GemmNN(a, bt, c2, m)
	for i := range c1 {
		c2[i] = -c2[i]
	}
	if d := MaxAbsDiff(c1, c2); d > 1e-4 {
		t.Fatalf("GemmNT inconsistent with explicit transpose by %g", d)
	}
}

func TestSyrkMatchesGemmNT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randBlock(testM, rng)
	c1 := spdBlock(testM, rng)
	c2 := append([]float32(nil), c1...)
	for _, p := range Providers {
		d1 := append([]float32(nil), c1...)
		d2 := append([]float32(nil), c2...)
		p.Syrk(a, d1, testM)
		p.GemmNT(a, a, d2, testM)
		if d := LowerMaxAbsDiff(d1, d2, testM); d > 1e-4 {
			t.Fatalf("%s: Syrk lower triangle differs from GemmNT(A,A) by %g", p.Name, d)
		}
	}
}

func TestPotrfFactorsSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	orig := spdBlock(testM, rng)
	for _, p := range Providers {
		a := append([]float32(nil), orig...)
		if !p.Potrf(a, testM) {
			t.Fatalf("%s: Potrf failed on SPD block", p.Name)
		}
		ZeroUpper(a, testM)
		back := MulLLT(a, testM)
		if d := MaxAbsDiff(orig, back); d > 1e-3 {
			t.Fatalf("%s: L·Lᵀ differs from A by %g", p.Name, d)
		}
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	m := 4
	for _, p := range Providers {
		a := make([]float32, m*m)
		a[0] = -1 // negative pivot
		if p.Potrf(a, m) {
			t.Fatalf("%s: Potrf accepted an indefinite matrix", p.Name)
		}
	}
}

func TestTrsmSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Build a well-conditioned lower-triangular L.
	l := make([]float32, testM*testM)
	for i := 0; i < testM; i++ {
		for j := 0; j < i; j++ {
			l[i*testM+j] = rng.Float32()*0.2 - 0.1
		}
		l[i*testM+i] = 1 + rng.Float32()
	}
	b := randBlock(testM, rng)
	for _, p := range Providers {
		x := append([]float32(nil), b...)
		p.Trsm(l, x, testM)
		// Check X·Lᵀ == B.
		got := make([]float32, testM*testM)
		lt := make([]float32, testM*testM)
		for i := 0; i < testM; i++ {
			for j := 0; j < testM; j++ {
				lt[i*testM+j] = l[j*testM+i]
			}
		}
		Fast.GemmNN(x, lt, got, testM)
		if d := MaxAbsDiff(got, b); d > 1e-3 {
			t.Fatalf("%s: X·Lᵀ differs from B by %g", p.Name, d)
		}
	}
}

func TestAddSub(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randBlock(8, rng), randBlock(8, rng)
	for _, p := range Providers {
		c := make([]float32, 64)
		p.Add(a, b, c, 8)
		for i := range c {
			if c[i] != a[i]+b[i] {
				t.Fatalf("%s: Add wrong at %d", p.Name, i)
			}
		}
		p.Sub(a, b, c, 8)
		for i := range c {
			if c[i] != a[i]-b[i] {
				t.Fatalf("%s: Sub wrong at %d", p.Name, i)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("goto").Name != "goto" || ByName("mkl").Name != "mkl" || ByName("tuned").Name != "tuned" {
		t.Fatalf("ByName lookup broken")
	}
	if ByName("nonsense").Name != "tuned" {
		t.Fatalf("ByName default must be the tuned provider")
	}
}

func TestCholeskyFlatRoundTrip(t *testing.T) {
	n := 48
	a := GenSPD(n, 42)
	orig := append([]float32(nil), a...)
	if !CholeskyFlat(a, n) {
		t.Fatalf("CholeskyFlat failed on SPD input")
	}
	ZeroUpper(a, n)
	back := MulLLT(a, n)
	if d := MaxAbsDiff(orig, back); d > 1e-3 {
		t.Fatalf("flat Cholesky round trip off by %g", d)
	}
}

func TestLUFlatRoundTrip(t *testing.T) {
	n := 32
	a := GenSPD(n, 7) // SPD needs no pivoting
	orig := append([]float32(nil), a...)
	if !LUFlat(a, n) {
		t.Fatalf("LUFlat hit a zero pivot on SPD input")
	}
	// Rebuild L·U.
	back := make([]float32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float32
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				var lik float32
				if k < i {
					lik = a[i*n+k]
				} else {
					lik = 1 // unit diagonal
				}
				if k <= j {
					s += lik * a[k*n+j]
				}
			}
			back[i*n+j] = s
		}
	}
	if d := MaxAbsDiff(orig, back); d > 1e-2 {
		t.Fatalf("L·U differs from A by %g", d)
	}
}

func TestGenSPDIsSymmetric(t *testing.T) {
	n := 20
	a := GenSPD(n, 99)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if a[i*n+j] != a[j*n+i] {
				t.Fatalf("GenSPD not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestGenMatrixReproducible(t *testing.T) {
	a := GenMatrix(16, 5)
	b := GenMatrix(16, 5)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatalf("GenMatrix not reproducible for equal seeds")
	}
	c := GenMatrix(16, 6)
	if MaxAbsDiff(a, c) == 0 {
		t.Fatalf("GenMatrix identical across different seeds")
	}
}

func TestFlopsFormulas(t *testing.T) {
	if GemmFlops(100) != 2e6 {
		t.Fatalf("GemmFlops(100) = %g", GemmFlops(100))
	}
	if CholeskyFlops(90) <= 0 {
		t.Fatalf("CholeskyFlops must be positive")
	}
	// Strassen at cutoff equals plain GEMM; above cutoff it is cheaper
	// than 8 half-size multiplies.
	if StrassenFlops(64, 64) != GemmFlops(64) {
		t.Fatalf("Strassen at cutoff must equal GEMM flops")
	}
	if !(StrassenFlops(128, 64) < 8*GemmFlops(64)+1e9) {
		t.Fatalf("Strassen flops formula out of range")
	}
}

func TestGemmLinearityProperty(t *testing.T) {
	// Property: GEMM is linear in A — (A1+A2)·B == A1·B + A2·B.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 8
		a1, a2, b := randBlock(m, rng), randBlock(m, rng), randBlock(m, rng)
		sum := make([]float32, m*m)
		Fast.Add(a1, a2, sum, m)
		c1 := make([]float32, m*m)
		Fast.GemmNN(sum, b, c1, m)
		c2 := make([]float32, m*m)
		Fast.GemmNN(a1, b, c2, m)
		Fast.GemmNN(a2, b, c2, m)
		return MaxAbsDiff(c1, c2) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPotrfTrsmConsistency(t *testing.T) {
	// Property: after A = L·Lᵀ, Trsm(L, B) applied to B = X·Lᵀ recovers X.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 12
		a := spdBlock(m, rng)
		if !potrf(a, m) {
			return false
		}
		ZeroUpper(a, m)
		x := randBlock(m, rng)
		// B = X·Lᵀ
		lt := make([]float32, m*m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				lt[i*m+j] = a[j*m+i]
			}
		}
		b := make([]float32, m*m)
		Fast.GemmNN(x, lt, b, m)
		Fast.Trsm(a, b, m)
		return MaxAbsDiff(b, x) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
