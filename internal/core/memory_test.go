package core

import (
	"testing"
)

// churnRounds drives the writer-over-pending-reader pattern that forces
// one rename per round, returning the buffers for content checks.
func churnRounds(rt *Runtime, rounds, n int) (x, y []float32) {
	x = make([]float32, n)
	y = make([]float32, n)
	rt.Submit(fillDef, Out(y), Value(0.0))
	for i := 0; i < rounds; i++ {
		rt.Submit(fillDef, Out(x), Value(1.0))
		rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
	}
	return x, y
}

// TestLiveRenamedBytesDrainAtBarrier is the PR's acceptance invariant:
// a rename-heavy program recycles storage through the pool, and after a
// barrier on a fully-drained graph no renamed byte is live.
func TestLiveRenamedBytesDrainAtBarrier(t *testing.T) {
	rt := newRT(t, 4)
	defer rt.Close()
	// Phase 1 renames into fresh storage; the barrier drains every
	// version, so phase 2's renames are guaranteed at least one pool hit
	// (the recycled phase-1 instances share the size class).
	x, y := churnRounds(rt, 25, 1024)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		rt.Submit(fillDef, Out(x), Value(1.0))
		rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Renames == 0 {
		t.Fatalf("workload must rename: %+v", st)
	}
	if st.PoolHits == 0 {
		t.Fatalf("rename churn on one size class must hit the pool: %+v", st)
	}
	if st.PoolHits+st.PoolMisses != st.Renames {
		t.Fatalf("every rename is an acquire: hits %d + misses %d != renames %d",
			st.PoolHits, st.PoolMisses, st.Renames)
	}
	if st.LiveRenamedBytes != 0 {
		t.Fatalf("live renamed bytes after barrier = %d, want 0", st.LiveRenamedBytes)
	}
	if x[0] != 1 || y[0] != 50 {
		t.Fatalf("results corrupted: x[0]=%v y[0]=%v", x[0], y[0])
	}
}

// TestCopyElisionAfterQuiescence: a write over a task-written object
// whose consumers have all drained must skip the rename and be counted.
func TestCopyElisionAfterQuiescence(t *testing.T) {
	rt := newRT(t, 2)
	defer rt.Close()
	x := make([]float32, 64)
	rt.Submit(fillDef, Out(x), Value(1.0))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	rt.Submit(fillDef, Out(x), Value(2.0)) // dead WAW: elided, in place
	rt.Submit(scaleDef, InOut(x), Value(3.0))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.RenamesElided == 0 {
		t.Fatalf("quiescent overwrite must be counted as elided: %+v", st)
	}
	if x[0] != 6 {
		t.Fatalf("x[0] = %v, want 6", x[0])
	}
}

// TestMemoryLimitIdleDivergenceSyncs: when the limit is exceeded but no
// task is outstanding, the live bytes belong to idle diverged objects
// no completion can release — the throttle must sync them back and
// proceed instead of parking forever.
func TestMemoryLimitIdleDivergenceSyncs(t *testing.T) {
	rt := New(Config{Workers: 2, MemoryLimit: 2 << 10})
	defer rt.Close()
	x := make([]float32, 1024) // 4 KiB: one rename exceeds the limit
	y := make([]float32, 1024)
	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
	rt.Submit(fillDef, Out(x), Value(2.0)) // renames; 4 KiB live after drain
	// This submission hits the memory throttle; once the three tasks
	// above complete it must reclaim via sync-back rather than deadlock.
	rt.Submit(fillDef, Out(x), Value(3.0))
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.LiveRenamedBytes != 0 {
		t.Fatalf("live renamed bytes after barrier = %d, want 0", st.LiveRenamedBytes)
	}
	if x[0] != 3 {
		t.Fatalf("x[0] = %v, want 3", x[0])
	}
}

// regionAddDef adds a delta over the [lo, lo+n) range of its inout
// parameter; the region restriction is declared at the call site.
var regionAddDef = NewTaskDef("radd", func(a *Args) {
	x := a.F32(0)
	lo, n := a.Int(1), a.Int(2)
	d := float32(a.Float(3))
	for i := lo; i < lo+n; i++ {
		x[i] += d
	}
})

// TestRegionRenameInterleaveRace interleaves whole-object renames with
// partial-region accesses on the same object across many trials on 8
// workers.  Run with -race: it exercises the region flip of a diverged
// object (forfeiting its pooled instance) concurrently with completion
// hooks counting versions down.
func TestRegionRenameInterleaveRace(t *testing.T) {
	rt := newRT(t, 8)
	defer rt.Close()
	for trial := 0; trial < 60; trial++ {
		x := make([]float32, 256)
		y := make([]float32, 256)
		rt.Submit(fillDef, Out(y), Value(0.0))
		rt.Submit(fillDef, Out(x), Value(1.0))
		rt.Submit(axpyDef, In(x), InOut(y), Value(1.0)) // pending reader
		rt.Submit(fillDef, Out(x), Value(5.0))          // whole-object rename
		rt.Submit(scaleDef, InOut(x), Value(2.0))       // chain on renamed storage
		// Partial accesses flip the diverged object into region mode.
		rt.Submit(regionAddDef, InOutR(x, Span(0, 128)), Value(0), Value(128), Value(3.0))
		rt.Submit(regionAddDef, InOutR(x, Span(128, 128)), Value(128), Value(128), Value(4.0))
		if err := rt.Barrier(); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			want := float32(13)
			if i >= 128 {
				want = 14
			}
			if x[i] != want {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], want)
			}
			if y[i] != 1 {
				t.Fatalf("trial %d: y[%d] = %v, want 1", trial, i, y[i])
			}
		}
		if live := rt.Stats().LiveRenamedBytes; live != 0 {
			t.Fatalf("trial %d: live renamed bytes after barrier = %d", trial, live)
		}
	}
}

// TestForgetReleasesDivergedInstance: Forget of a diverged, drained
// object returns its renamed instance to the pool and does not sync the
// contents back — the buffer keeps what it last held.
func TestForgetReleasesDivergedInstance(t *testing.T) {
	// Workers: 1 has no worker goroutines: nothing runs before WaitOn,
	// so the second fill always finds the reader pending and renames.
	rt := newRT(t, 1)
	defer rt.Close()
	x := make([]float32, 1024)
	y := make([]float32, 1024)
	rt.Submit(fillDef, Out(y), Value(0.0))
	rt.Submit(fillDef, Out(x), Value(1.0))
	rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
	rt.Submit(fillDef, Out(x), Value(2.0)) // renamed: x diverges
	rt.Submit(axpyDef, In(x), InOut(y), Value(1.0))
	// The last task depends on all the others; WaitOn syncs back y only.
	if err := rt.WaitOn(y); err != nil {
		t.Fatal(err)
	}
	if live := rt.Stats().LiveRenamedBytes; live != 4096 {
		t.Fatalf("live renamed bytes before Forget = %d, want x's 4096", live)
	}
	rt.Context().Forget(x)
	if live := rt.Stats().LiveRenamedBytes; live != 0 {
		t.Fatalf("live renamed bytes after Forget = %d, want 0", live)
	}
	if x[0] != 1 || y[0] != 3 {
		t.Fatalf("x[0]=%v y[0]=%v, want 1 (not synced back) and 3", x[0], y[0])
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
}
