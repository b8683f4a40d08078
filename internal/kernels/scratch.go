package kernels

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Scratch holds the working buffers of the packed micro-kernel engine:
// one contiguous float32 arena split on demand into the packed A row
// panels and packed B column panels of a GEMM invocation, and for the
// blocked Trsm and Potrf also their diagonal-block inverses and panel
// copy.  A Scratch belongs to one executing thread at a time — the
// runtime path hands every worker its own instance (keyed off
// Args.Worker() through core's worker-local registry), while the plain
// Provider entry points borrow one from the size-classed pool below for
// the duration of a call.  Buffers grow monotonically and are reused
// across calls, so a steady kernel stream performs no allocations.
type Scratch struct {
	buf []float32
}

// NewScratch returns an empty scratch; its arena grows on first use.
func NewScratch() *Scratch { return &Scratch{} }

// ensure returns an arena of at least n floats, growing the scratch to
// the next power-of-two class if needed.  Growth goes through the pool
// so a retired arena of a smaller class is recycled rather than dropped.
func (s *Scratch) ensure(n int) []float32 {
	if cap(s.buf) < n {
		if s.buf != nil {
			putArena(s.buf)
		}
		s.buf = getArena(n)
	}
	return s.buf[:n]
}

// Release returns the scratch's arena to the size-classed pool and
// empties the scratch (safe to reuse; the next ensure reacquires).
// The runtime calls it on per-worker scratches when it closes, so a
// benchmark sweep building one runtime per measurement point recycles
// arenas across runtimes instead of growing fresh ones each time.
func (s *Scratch) Release() {
	if s.buf != nil {
		putArena(s.buf)
		s.buf = nil
	}
}

// scratchClasses spans arenas of 2^0 .. 2^31 floats; class i holds
// arenas of exactly 1<<i capacity, so any free arena of a class fits
// any request mapped to it (mirroring the size-classed recycling pool
// of deps/pool.go, which plays the same role for renamed storage).
const scratchClasses = 32

// maxFreeArenas bounds each class's free list: concurrent borrowers
// past the bound allocate fresh arenas and the overflow on release is
// dropped to the GC, so a burst cannot pin its peak footprint forever.
const maxFreeArenas = 32

// scratchPool recycles packing arenas (and, through freeScratch, whole
// Scratch instances for the plain Provider entry points that have no
// per-worker identity to key off).
var scratchPool struct {
	mu      sync.Mutex
	classes [scratchClasses][][]float32

	free []*Scratch // idle Scratch headers for the plain entry points

	hits, misses atomic.Int64
}

// arenaClass maps a request of n floats to its power-of-two class.
func arenaClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getArena returns a recycled arena of the request's class, or a fresh
// allocation when the class free list is empty.
func getArena(n int) []float32 {
	c := arenaClass(n)
	scratchPool.mu.Lock()
	if l := scratchPool.classes[c]; len(l) > 0 {
		a := l[len(l)-1]
		l[len(l)-1] = nil
		scratchPool.classes[c] = l[:len(l)-1]
		scratchPool.mu.Unlock()
		scratchPool.hits.Add(1)
		return a
	}
	scratchPool.mu.Unlock()
	scratchPool.misses.Add(1)
	return make([]float32, 1<<c)
}

// putArena returns an arena to its class free list, dropping it to the
// GC past the per-class bound.  Arenas keep stale contents: packing
// overwrites every float it will read.
func putArena(a []float32) {
	c := arenaClass(cap(a))
	if 1<<c != cap(a) {
		// Not a class-shaped arena (should not happen); let the GC have it.
		return
	}
	scratchPool.mu.Lock()
	if len(scratchPool.classes[c]) < maxFreeArenas {
		scratchPool.classes[c] = append(scratchPool.classes[c], a[:cap(a)])
	}
	scratchPool.mu.Unlock()
}

// AcquireScratch borrows a scratch from the pool; pair with
// ReleaseScratch.  The plain Tuned entry points wrap every call in an
// acquire/release pair, so call sites without a worker identity
// (fork-join baselines, the CellSs and SuperMatrix runtimes, tests)
// still run allocation-free in steady state.
func AcquireScratch() *Scratch {
	scratchPool.mu.Lock()
	if l := scratchPool.free; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		scratchPool.free = l[:len(l)-1]
		scratchPool.mu.Unlock()
		return s
	}
	scratchPool.mu.Unlock()
	return NewScratch()
}

// ReleaseScratch returns a scratch to the pool.  Past the bound the
// header is dropped but its arena is still recycled by class.
func ReleaseScratch(s *Scratch) {
	scratchPool.mu.Lock()
	if len(scratchPool.free) < maxFreeArenas {
		scratchPool.free = append(scratchPool.free, s)
		scratchPool.mu.Unlock()
		return
	}
	scratchPool.mu.Unlock()
	s.Release()
}

// ScratchPoolStats reports pool activity: arena acquisitions served
// from a free list vs fresh allocations.
func ScratchPoolStats() (hits, misses int64) {
	return scratchPool.hits.Load(), scratchPool.misses.Load()
}
