package deps

import (
	"testing"

	"repro/internal/graph"
)

func poolAccess(buf []float32) Access {
	return Access{
		Key:   keyOf(buf),
		Mode:  ModeOut,
		Data:  buf,
		Alloc: func() any { return make([]float32, len(buf)) },
	}
}

func TestPoolAcquireReleaseRoundTrip(t *testing.T) {
	var p Pool
	a := poolAccess(make([]float32, 16))
	inst1, bytes := p.acquire(&a)
	if bytes != 64 {
		t.Fatalf("bytes = %d, want 64", bytes)
	}
	if got := p.LiveBytes(); got != 64 {
		t.Fatalf("live = %d, want 64", got)
	}
	p.release(inst1, bytes)
	if got := p.LiveBytes(); got != 0 {
		t.Fatalf("live after release = %d, want 0", got)
	}
	inst2, _ := p.acquire(&a)
	if &inst1.([]float32)[0] != &inst2.([]float32)[0] {
		t.Fatalf("second acquire must recycle the released instance")
	}
	ps := p.Stats()
	if ps.Hits != 1 || ps.Misses != 1 || ps.Releases != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 release", ps)
	}
}

func TestPoolClassesAreDistinct(t *testing.T) {
	var p Pool
	a16 := poolAccess(make([]float32, 16))
	a32 := poolAccess(make([]float32, 32))
	i16, b16 := p.acquire(&a16)
	p.release(i16, b16)
	// A different length must not be served from the 16-element class.
	i32, _ := p.acquire(&a32)
	if len(i32.([]float32)) != 32 {
		t.Fatalf("wrong class served: len = %d", len(i32.([]float32)))
	}
	ps := p.Stats()
	if ps.Hits != 0 || ps.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses", ps)
	}
	// Same shape but different element type is a distinct class too.
	ai := Access{Data: make([]int64, 16), Alloc: func() any { return make([]int64, 16) }}
	ii, _ := p.acquire(&ai)
	if _, ok := ii.([]int64); !ok {
		t.Fatalf("wrong type served: %T", ii)
	}
}

func TestPoolFreeListBounded(t *testing.T) {
	// The bound is in bytes: 256 KiB instances fill it with 64, where a
	// class of 16-byte instances would keep a million.
	const words = 64 << 10
	const fit = freeBytesPerClass / (4 * words)
	var p Pool
	a := poolAccess(make([]float32, words))
	var insts []any
	for i := 0; i < fit+5; i++ {
		inst, _ := p.acquire(&a)
		insts = append(insts, inst)
	}
	for _, inst := range insts {
		p.release(inst, 4*words)
	}
	ps := p.Stats()
	if ps.Releases != fit || ps.Drops != 5 {
		t.Fatalf("stats = %+v, want %d releases / 5 drops", ps, fit)
	}
	if ps.FreeBytes != freeBytesPerClass {
		t.Fatalf("free bytes = %d, want %d", ps.FreeBytes, freeBytesPerClass)
	}
	if ps.LiveBytes != 0 {
		t.Fatalf("live bytes = %d, want 0", ps.LiveBytes)
	}
}

func TestPoolReclaimHookFires(t *testing.T) {
	var p Pool
	fired := 0
	p.SetReclaimHook(func() { fired++ })
	a := poolAccess(make([]float32, 4))
	inst, bytes := p.acquire(&a)
	if fired != 0 {
		t.Fatalf("hook must not fire on acquire")
	}
	p.release(inst, bytes)
	if fired != 1 {
		t.Fatalf("hook fired %d times after release, want 1", fired)
	}
	p.forfeit(bytes)
	if fired != 2 {
		t.Fatalf("hook fired %d times after forfeit, want 2", fired)
	}
}

// TestPoolKeepsSmallClassWarm runs an N-Queens-shaped stream twice: a
// 13-word board placed into (inout) while the tail searches of earlier
// placements still read it, so every placement renames, and nothing
// completes before the repetition's last submission.  The free list is
// bounded in bytes, so the second repetition finds the first one's
// boards: an instance bound of 64 served 1 % of them.
func TestPoolKeepsSmallClassWarm(t *testing.T) {
	const placements = 6400
	h := newHarness()
	board := make([]float32, 13)
	var hits [2]float64
	for rep := range hits {
		before := h.tr.PoolStats()
		var open []*graph.Node
		for i := 0; i < placements; i++ {
			place, _ := h.task(f32Access(board, ModeInOut))
			tail, _ := h.task(f32Access(board, ModeIn))
			open = append(open, place, tail)
		}
		for _, n := range open {
			h.g.Complete(n, 0)
		}
		after := h.tr.PoolStats()
		hits[rep] = float64(after.Hits-before.Hits) / placements
		if after.Drops != 0 {
			t.Fatalf("repetition %d dropped %d boards of a class far below the byte bound", rep, after.Drops)
		}
	}
	if hits[1] < 0.9 {
		t.Fatalf("pool hit ratio of the second repetition = %.3f (first %.3f), want >= 0.9", hits[1], hits[0])
	}
}
