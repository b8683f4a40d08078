package deps

import (
	"sync"
	"testing"

	"repro/internal/graph"
)

// ptrOf returns the base address of a resolution's []float32 instance.
func ptrOf(inst any) *float32 { return &inst.([]float32)[0] }

// TestRenameReusesPooledStorage walks the pooled lifecycle end to end:
// the first rename allocates fresh storage (miss), the superseded
// version's instance returns to the pool when its last consumer
// completes, and the next rename of the same size class is served from
// the pool (hit) with the exact recycled backing array.
func TestRenameReusesPooledStorage(t *testing.T) {
	h := newHarness()
	x := make([]float32, 8)

	w1, _ := h.task(f32Access(x, ModeOut)) // in place on the initial version
	r1, _ := h.task(f32Access(x, ModeIn))
	w2, res2 := h.task(f32Access(x, ModeOut)) // hazard (r1 live): rename, miss
	if !res2[0].Renamed {
		t.Fatalf("expected rename over pending reader")
	}
	h.g.Complete(w1, 0)
	h.g.Complete(r1, 0)
	h.g.Complete(w2, 0)

	r2, _ := h.task(f32Access(x, ModeIn))
	w3, res3 := h.task(f32Access(x, ModeOut)) // hazard (r2 live): rename, miss
	if !res3[0].Renamed {
		t.Fatalf("expected second rename")
	}
	if ps := h.tr.PoolStats(); ps.Hits != 0 || ps.Misses != 2 {
		t.Fatalf("pool stats before reclamation = %+v, want 0 hits / 2 misses", ps)
	}
	// r2 was the last consumer of the superseded version holding the
	// first renamed instance; completing it reclaims that instance.
	h.g.Complete(r2, 0)
	h.g.Complete(w3, 0)
	if ps := h.tr.PoolStats(); ps.Releases != 1 {
		t.Fatalf("pool stats after reclamation = %+v, want 1 release", ps)
	}

	r3, _ := h.task(f32Access(x, ModeIn))
	w4, res4 := h.task(f32Access(x, ModeOut)) // hazard (r3 live): rename, HIT
	if !res4[0].Renamed {
		t.Fatalf("expected third rename")
	}
	if ps := h.tr.PoolStats(); ps.Hits != 1 || ps.Misses != 2 {
		t.Fatalf("pool stats after recycled rename = %+v, want 1 hit / 2 misses", ps)
	}
	if ptrOf(res4[0].Instance) != ptrOf(res2[0].Instance) {
		t.Fatalf("recycled rename must reuse the reclaimed backing array")
	}
	h.g.Complete(r3, 0)
	h.g.Complete(w4, 0)
}

// TestCopyElisionCounters verifies the dead-hazard fast path: a write
// over a task-written version whose producer completed and whose
// readers drained proceeds in place and is counted as elided, for both
// output and inout parameters.
func TestCopyElisionCounters(t *testing.T) {
	h := newHarness()
	x := make([]float32, 8)
	w1, res1 := h.task(f32Access(x, ModeOut))
	h.g.Complete(w1, 0)

	w2, res2 := h.task(f32Access(x, ModeOut))
	if res2[0].Renamed || ptrOf(res2[0].Instance) != ptrOf(res1[0].Instance) {
		t.Fatalf("dead WAW must write in place")
	}
	if st := h.tr.Stats(); st.RenamesElided != 1 {
		t.Fatalf("stats = %+v, want 1 elided rename", st)
	}
	h.g.Complete(w2, 0)

	_, res3 := h.task(f32Access(x, ModeInOut))
	if res3[0].Renamed || res3[0].CopyFrom != nil {
		t.Fatalf("dead-hazard inout must update in place with no seed copy")
	}
	if st := h.tr.Stats(); st.RenamesElided != 2 {
		t.Fatalf("stats = %+v, want 2 elided renames", st)
	}
	// A first write to never-task-written data is not an elision.
	y := make([]float32, 8)
	h.task(f32Access(y, ModeOut))
	if st := h.tr.Stats(); st.RenamesElided != 2 {
		t.Fatalf("initial write must not count as elided: %+v", st)
	}
}

// TestRenamedInOutPinsCopySource checks that the previous version's
// instance cannot be recycled between a renamed-inout analysis and the
// consuming task's completion: the seed copy at task start reads it.
func TestRenamedInOutPinsCopySource(t *testing.T) {
	h := newHarness()
	x := []float32{1, 2, 3, 4}
	w1, _ := h.task(f32Access(x, ModeOut))
	r0, _ := h.task(f32Access(x, ModeIn))
	w2, res2 := h.task(f32Access(x, ModeOut)) // rename #1: instance A
	if !res2[0].Renamed {
		t.Fatalf("expected rename")
	}
	h.g.Complete(w1, 0)
	h.g.Complete(r0, 0)
	h.g.Complete(w2, 0)

	r1, _ := h.task(f32Access(x, ModeIn))
	u, resU := h.task(f32Access(x, ModeInOut)) // rename #2, copies from A
	if !resU[0].Renamed || ptrOf(resU[0].CopyFrom) != ptrOf(res2[0].Instance) {
		t.Fatalf("inout must rename with the previous instance as copy source")
	}
	// A's version is superseded and its producer and reader are done —
	// but u still holds the copy-source pin, so A must stay out of the
	// pool.
	h.g.Complete(r1, 0)
	if ps := h.tr.PoolStats(); ps.Releases != 0 {
		t.Fatalf("copy source reclaimed while pinned: %+v", ps)
	}
	h.g.Complete(u, 0)
	if ps := h.tr.PoolStats(); ps.Releases != 1 {
		t.Fatalf("copy source not reclaimed after consumer completion: %+v", ps)
	}
}

// TestSyncAllReclaimsDivergedStorage: after a quiescent graph, SyncAll
// copies renamed contents back and returns every owned instance to the
// pool, draining the live gauge to zero.
func TestSyncAllReclaimsDivergedStorage(t *testing.T) {
	h := newHarness()
	x := []float32{1, 2, 3, 4}
	w1, _ := h.task(f32Access(x, ModeOut))
	r1, _ := h.task(f32Access(x, ModeIn))
	w2, res2 := h.task(f32Access(x, ModeOut))
	if !res2[0].Renamed {
		t.Fatalf("expected rename")
	}
	inst := res2[0].Instance.([]float32)
	for i := range inst {
		inst[i] = float32(10 + i)
	}
	h.g.Complete(w1, 0)
	h.g.Complete(r1, 0)
	h.g.Complete(w2, 0)

	if live := h.tr.LiveRenamedBytes(); live == 0 {
		t.Fatalf("diverged object must hold live renamed bytes")
	}
	if n := h.tr.SyncAll(); n != 1 {
		t.Fatalf("SyncAll = %d, want 1 copy", n)
	}
	if x[0] != 10 || x[3] != 13 {
		t.Fatalf("sync-back did not restore contents: %v", x)
	}
	if live := h.tr.LiveRenamedBytes(); live != 0 {
		t.Fatalf("live renamed bytes after SyncAll = %d, want 0", live)
	}
}

// TestForgetReleasesPooledVersion: Forget discards renamed contents (the
// documented contract) but must return the object's pooled storage so
// the live gauge does not leak.
func TestForgetReleasesPooledVersion(t *testing.T) {
	h := newHarness()
	x := make([]float32, 16)
	w1, _ := h.task(f32Access(x, ModeOut))
	r1, _ := h.task(f32Access(x, ModeIn))
	w2, res2 := h.task(f32Access(x, ModeOut))
	if !res2[0].Renamed {
		t.Fatalf("expected rename")
	}
	h.g.Complete(w1, 0)
	h.g.Complete(r1, 0)
	h.g.Complete(w2, 0)
	if h.tr.LiveRenamedBytes() == 0 {
		t.Fatalf("premise broken: no live renamed storage before Forget")
	}
	h.tr.Forget(keyOf(x))
	if live := h.tr.LiveRenamedBytes(); live != 0 {
		t.Fatalf("Forget leaked %d live renamed bytes", live)
	}
	if ps := h.tr.PoolStats(); ps.Releases == 0 {
		t.Fatalf("Forget must release the pooled instance: %+v", ps)
	}
}

// TestRegionFlipForfeitsRenamedStorage: flipping a diverged object into
// region mode removes its renamed instance from pooled management (it
// stays in use as the object's current contents) without leaking the
// live gauge.
func TestRegionFlipForfeitsRenamedStorage(t *testing.T) {
	h := newHarness()
	x := make([]float32, 100)
	w1, _ := h.task(f32Access(x, ModeOut))
	r1, _ := h.task(f32Access(x, ModeIn))
	w2, res2 := h.task(f32Access(x, ModeOut)) // rename
	if !res2[0].Renamed {
		t.Fatalf("expected rename")
	}
	h.g.Complete(w1, 0)
	h.g.Complete(r1, 0)
	h.g.Complete(w2, 0)

	// Partial access flips the diverged object to region mode.
	rr, resR := h.task(f32RegionAccess(x, ModeIn, Interval(0, 9)))
	if ptrOf(resR[0].Instance) != ptrOf(res2[0].Instance) {
		t.Fatalf("region access must see the renamed current contents")
	}
	h.g.Complete(rr, 0)
	if live := h.tr.LiveRenamedBytes(); live != 0 {
		t.Fatalf("region flip must forfeit renamed bytes, live = %d", live)
	}
	ps := h.tr.PoolStats()
	if ps.Forfeits != 1 {
		t.Fatalf("pool stats = %+v, want 1 forfeit", ps)
	}
	// Sync-back still restores contents to the user array, and must not
	// double-release the forfeited instance.
	if n := h.tr.SyncAll(); n != 1 {
		t.Fatalf("SyncAll = %d, want 1", n)
	}
	if ps := h.tr.PoolStats(); ps.Releases != 0 {
		t.Fatalf("forfeited instance must not re-enter the pool: %+v", ps)
	}
}

// TestPoolInvariantsConcurrent analyses every mode over a few objects
// against concurrent completers, then checks the pool's global
// invariants: every acquire is a hit or a miss, and after draining plus
// SyncAll no renamed byte is live.  Run with -race to validate the
// lock-free refcount traffic.
func TestPoolInvariantsConcurrent(t *testing.T) {
	bufs := make([][]float32, 4)
	for i := range bufs {
		bufs[i] = make([]float32, 32)
	}
	tr := analyzeAgainstCompleters(t, 2400, 4, func(i int) []Access {
		return []Access{f32Access(bufs[i%len(bufs)], Mode((i/len(bufs)+i)%3))}
	})

	tr.SyncAll()
	st := tr.Stats()
	ps := tr.PoolStats()
	if ps.Hits+ps.Misses != st.Renames {
		t.Fatalf("acquires (%d hits + %d misses) != %d renames", ps.Hits, ps.Misses, st.Renames)
	}
	if live := tr.LiveRenamedBytes(); live != 0 {
		t.Fatalf("live renamed bytes after drain+SyncAll = %d, want 0", live)
	}
	if ps.Hits+ps.Misses != ps.Releases+ps.Drops {
		t.Fatalf("acquires %d != releases %d after full drain",
			ps.Hits+ps.Misses, ps.Releases+ps.Drops)
	}
}

// TestVersionDiesExactlyOnce: a version owning pooled storage is held by
// its producer, by readers and by renamed-inout successors, and is the
// object's current version.  All of them but one let go at once, each
// on its own goroutine, racing the owner's retire: the version must
// still be alive.  The last one kills it: the storage goes back to the
// pool once, and the version to the free list once.  Which holder is
// last rotates through all four kinds.
func TestVersionDiesExactlyOnce(t *testing.T) {
	const rounds, readers, sources = 400, 5, 2
	tr := NewTracker(graph.New(func(*graph.Node, int) {}))
	acc := f32Access(make([]float32, 16), ModeOut)
	producer := &graph.Node{}
	for round := 1; round <= rounds; round++ {
		inst, bytes := tr.pool.acquire(&acc)
		v := tr.newVersion(producer, inst)
		v.owned, v.bytes = true, bytes
		// The producer's hold is the node's; here it is let go by hand.
		releases := []func(){
			func() { v.release(oneRef) }, // what object.setCurrent does to a replaced version
			func() { (*producerHold)(v).ReleaseHold(producer) },
		}
		for i := 0; i < readers; i++ {
			v.counts.Add(oneReader)
			releases = append(releases, func() { (*readerHold)(v).ReleaseHold(nil) })
		}
		for i := 0; i < sources; i++ {
			v.counts.Add(oneRef)
			releases = append(releases, func() { (*sourceHold)(v).ReleaseHold(nil) })
		}
		lastIdx := []int{0, 1, 2, 2 + readers}[round%4]
		last := releases[lastIdx]
		releases = append(releases[:lastIdx], releases[lastIdx+1:]...)

		var start, done sync.WaitGroup
		start.Add(1)
		for _, release := range releases[1:] {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				release()
			}()
		}
		start.Done()
		releases[0]() // the owner's retire, unless it is the one held back
		done.Wait()

		if ps := tr.PoolStats(); ps.Releases+ps.Drops != int64(round-1) || ps.LiveBytes != bytes {
			t.Fatalf("round %d: version died with a reference left: %+v", round, ps)
		}
		if refs := v.counts.Load(); refs != oneRef && refs != oneReader {
			t.Fatalf("round %d: counts = %#x with one holder left", round, refs)
		}
		last()
		if ps := tr.PoolStats(); ps.Releases+ps.Drops != int64(round) || ps.LiveBytes != 0 {
			t.Fatalf("round %d: after the last release: %+v, want %d instances back and no live byte", round, ps, round)
		}
		if v.instance != nil || v.counts.Load() != 0 {
			t.Fatalf("round %d: dead version still holds %v, counts %#x", round, v.instance, v.counts.Load())
		}
	}
	// Each death put the version on the free list once, and each round
	// took it from there again.
	n := 0
	for tr.versions.Get() != nil {
		n++
	}
	if n != 1 {
		t.Fatalf("free list holds %d versions after %d rounds of one", n, rounds)
	}
}

// TestPoisonTravelsThroughVersion: a reader or inout analyzed after the
// poisoned writer of its version completed is tainted from what the
// completion recorded in the version; an Out overwrite starts clean.
// Region-tracked objects keep no completed access and are out of scope.
func TestPoisonTravelsThroughVersion(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	bad, _ := h.task(f32Access(x, ModeInOut))
	early, _ := h.task(f32Access(x, ModeIn)) // analyzed before completion: the edge carries it
	bad.MarkPoisoned()
	h.g.Complete(bad, 0)
	if !early.Poisoned() {
		t.Fatalf("dependent on a live edge not tainted")
	}
	late, _ := h.task(f32Access(x, ModeIn))
	through, _ := h.task(f32Access(x, ModeInOut))
	if !late.Poisoned() || !through.Poisoned() {
		t.Fatalf("analyzed after completion: reader tainted %v, inout tainted %v, want both", late.Poisoned(), through.Poisoned())
	}
	if st := h.tr.Stats(); st.TrueEdges != 3 {
		t.Fatalf("TrueEdges = %d, want 3 (counted whether or not the producer is pending)", st.TrueEdges)
	}
	over, _ := h.task(f32Access(x, ModeOut))
	after, _ := h.task(f32Access(x, ModeIn))
	if over.Poisoned() || after.Poisoned() {
		t.Fatalf("an Out overwrite must start clean: writer %v, its reader %v", over.Poisoned(), after.Poisoned())
	}
}

// TestSteadyStateAnalysisAllocatesNothing: with the caller recycling its
// node, a write chain and a read beside it recycle their versions and
// keep their holds in the node, so tracker entry, completion and
// release allocate nothing.  A nil Access.Alloc builds no allocator.
func TestSteadyStateAnalysisAllocatesNothing(t *testing.T) {
	h := newHarness()
	x := make([]float32, 8)
	y := make([]float32, 8)
	accs := []Access{
		{Key: keyOf(x), Mode: ModeIn, Data: x},
		{Key: keyOf(y), Mode: ModeInOut, Data: y},
	}
	var n graph.Node
	var out []Resolution
	step := func() {
		h.g.Init(&n, 0, "t", false, nil)
		out = h.tr.AnalyzeBatch(&n, accs, out[:0])
		h.g.Seal(&n)
		h.g.MarkRunning(&n)
		h.g.Complete(&n, 0)
	}
	step()
	h.ready = make([]int64, 0, 64) // the harness logs ready nodes
	if a := testing.AllocsPerRun(32, step); a != 0 {
		t.Fatalf("analysis + completion allocate %v times per task, want 0", a)
	}
}

// TestNilAllocRenames: a rename of an access without an allocator gets
// storage shaped like the data.
func TestNilAllocRenames(t *testing.T) {
	h := newHarness()
	x := make([]float32, 5)
	h.task(f32Access(x, ModeIn))
	_, res := h.task(Access{Key: keyOf(x), Mode: ModeOut, Data: x})
	inst, ok := res[0].Instance.([]float32)
	if !res[0].Renamed || !ok || len(inst) != len(x) || &inst[0] == &x[0] {
		t.Fatalf("rename without Alloc = %#v (renamed %v), want fresh []float32 of length %d", res[0].Instance, res[0].Renamed, len(x))
	}
}
