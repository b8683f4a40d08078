package kernels

import (
	"fmt"
	"testing"
)

// Tile-kernel benchmarks: the per-provider single-core rates that anchor
// every Gflop/s figure (the "peak" series is the tuned GemmNN × threads).
// Every provider×block point reports gflop/s and allocs/op; the packed
// providers must hold 0 allocs/op in steady state (their pool is warmed
// by the timed loop's first iteration, and the SteadyStateAllocFree
// tests pin the criterion exactly).

// benchBlockSizes sweeps the block range of the paper's Fig. 8 sweet
// spot; every size is above the engines' default streaming crossover
// (the sub-crossover delegation runs Fast's loops, already measured by
// the goto series), and 384 exceeds the default kc=256 so the
// multi-chunk k loop is benchmarked, not just unit-tested.
var benchBlockSizes = []int{32, 64, 128, 256, 384}

func benchBlocks(m int) (a, b, c []float32) {
	return GenMatrix(m, 1), GenMatrix(m, 2), make([]float32, m*m)
}

func benchGemmNN(b *testing.B, p Provider, m int) {
	x, y, z := benchBlocks(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GemmNN(x, y, z, m)
	}
	b.ReportMetric(GemmFlops(m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func benchGemmNT(b *testing.B, p Provider, m int) {
	x, y, z := benchBlocks(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.GemmNT(x, y, z, m)
	}
	b.ReportMetric(GemmFlops(m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func benchSyrk(b *testing.B, p Provider, m int) {
	x, _, z := benchBlocks(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Syrk(x, z, m)
	}
	// Syrk touches only the lower triangle: half a GEMM's flops.
	b.ReportMetric(GemmFlops(m)/2*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

func BenchmarkGemmNN(b *testing.B) {
	for _, p := range Providers {
		for _, m := range benchBlockSizes {
			b.Run(fmt.Sprintf("%s/%d", p.Name, m), func(b *testing.B) { benchGemmNN(b, p, m) })
		}
	}
}

func BenchmarkGemmNT(b *testing.B) {
	for _, p := range Providers {
		for _, m := range benchBlockSizes {
			b.Run(fmt.Sprintf("%s/%d", p.Name, m), func(b *testing.B) { benchGemmNT(b, p, m) })
		}
	}
}

func BenchmarkSyrk(b *testing.B) {
	for _, p := range Providers {
		for _, m := range benchBlockSizes {
			b.Run(fmt.Sprintf("%s/%d", p.Name, m), func(b *testing.B) { benchSyrk(b, p, m) })
		}
	}
}

// BenchmarkGemmNNWorkerScratch measures the runtime path: a dedicated
// per-worker Scratch instead of the pooled acquire/release.
func BenchmarkGemmNNWorkerScratch256(b *testing.B) {
	m := 256
	x, y, z := benchBlocks(m)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GemmNN(x, y, z, m)
	}
	b.ReportMetric(GemmFlops(m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
}

// factorBlockSizes are the tile sizes the factor kernels are timed at:
// the gated benchmark's Cholesky tile and the paper's 256.
var factorBlockSizes = []int{192, 256}

// BenchmarkPotrf counts m³/3 flops per factorization and BenchmarkTrsm
// m³ per solve, the counts of benchmark/layers.go.  Both kernels
// overwrite their operand, so each iteration restores it inside the
// timed loop (an O(m²) copy against O(m³) work).

func BenchmarkPotrf(b *testing.B) {
	for _, p := range Providers {
		for _, m := range factorBlockSizes {
			b.Run(fmt.Sprintf("%s/%d", p.Name, m), func(b *testing.B) {
				spd := GenSPD(m, 3)
				work := make([]float32, m*m)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, spd)
					if !p.Potrf(work, m) {
						b.Fatal("not positive definite")
					}
				}
				b.ReportMetric(GemmFlops(m)/6*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
			})
		}
	}
}

func BenchmarkTrsm(b *testing.B) {
	for _, p := range Providers {
		for _, m := range factorBlockSizes {
			b.Run(fmt.Sprintf("%s/%d", p.Name, m), func(b *testing.B) {
				l := GenSPD(m, 4)
				if !Ref.Potrf(l, m) {
					b.Fatal("factor failed")
				}
				x := GenMatrix(m, 5)
				work := make([]float32, m*m)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(work, x)
					p.Trsm(l, work, m)
				}
				b.ReportMetric(GemmFlops(m)/2*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflop/s")
			})
		}
	}
}
