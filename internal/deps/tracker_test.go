package deps

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
)

// harness bundles a graph, tracker and a readiness log for dependency
// semantics tests.  Nodes are created, analyzed and sealed through it.
type harness struct {
	g  *graph.Graph
	tr *Tracker

	mu    sync.Mutex
	ready []int64
}

func newHarness() *harness {
	h := &harness{}
	h.g = graph.New(func(n *graph.Node, by int) {
		h.mu.Lock()
		h.ready = append(h.ready, n.ID)
		h.mu.Unlock()
	})
	h.tr = NewTracker(h.g)
	return h
}

func (h *harness) isReady(n *graph.Node) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range h.ready {
		if id == n.ID {
			return true
		}
	}
	return false
}

// task creates a node, runs the given accesses through the tracker and
// seals it, returning the node and per-access resolutions.
func (h *harness) task(accs ...Access) (*graph.Node, []Resolution) {
	n := h.g.AddNode(0, "t", false, nil)
	res := make([]Resolution, len(accs))
	for i, a := range accs {
		res[i] = h.tr.Analyze(n, a)
	}
	h.g.Seal(n)
	return n, res
}

func f32Access(buf []float32, mode Mode) Access {
	return Access{
		Key:   keyOf(buf),
		Mode:  mode,
		Data:  buf,
		Alloc: func() any { return make([]float32, len(buf)) },
		Copy:  func(dst, src any) { copy(dst.([]float32), src.([]float32)) },
	}
}

func f32RegionAccess(buf []float32, mode Mode, r Region) Access {
	a := f32Access(buf, mode)
	a.Region = r
	return a
}

// keyOf mirrors the runtime's object identity: the base address of the
// slice's backing array.
func keyOf(buf []float32) uintptr {
	if len(buf) == 0 {
		return 0
	}
	return reflect.ValueOf(buf).Pointer()
}

func TestRAWEdge(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	w, _ := h.task(f32Access(x, ModeOut))
	r, _ := h.task(f32Access(x, ModeIn))
	if h.isReady(r) {
		t.Fatalf("reader ready before writer completed")
	}
	h.g.Complete(w, 0)
	if !h.isReady(r) {
		t.Fatalf("reader not released by writer completion")
	}
	st := h.tr.Stats()
	if st.TrueEdges != 1 || st.FalseEdges != 0 || st.Renames != 0 {
		t.Fatalf("stats = %+v, want 1 true edge only", st)
	}
}

func TestParallelReaders(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	w, _ := h.task(f32Access(x, ModeOut))
	r1, _ := h.task(f32Access(x, ModeIn))
	r2, _ := h.task(f32Access(x, ModeIn))
	h.g.Complete(w, 0)
	if !h.isReady(r1) || !h.isReady(r2) {
		t.Fatalf("independent readers must be released together")
	}
	if st := h.tr.Stats(); st.TrueEdges != 2 {
		t.Fatalf("stats = %+v, want 2 true edges", st)
	}
}

func TestOutRenamesOverPendingReader(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	w1, res1 := h.task(f32Access(x, ModeOut))
	r, resR := h.task(f32Access(x, ModeIn))
	w2, res2 := h.task(f32Access(x, ModeOut))

	// w2 must not wait for the pending reader: renaming breaks the WAR.
	if !h.isReady(w2) {
		// w2 has no edges at all; it must be ready immediately.
		t.Fatalf("renamed output writer must be ready immediately")
	}
	if !res2[0].Renamed {
		t.Fatalf("second writer should have been renamed")
	}
	if &res2[0].Instance.([]float32)[0] == &res1[0].Instance.([]float32)[0] {
		t.Fatalf("renamed instance must be distinct storage")
	}
	// The reader keeps seeing the old version's storage.
	if &resR[0].Instance.([]float32)[0] != &res1[0].Instance.([]float32)[0] {
		t.Fatalf("reader must see the version current at its submission")
	}
	st := h.tr.Stats()
	if st.Renames != 1 || st.FalseEdges != 0 {
		t.Fatalf("stats = %+v, want 1 rename, 0 false edges", st)
	}
	_ = w1
	_ = r
}

func TestOutInPlaceWhenQuiescent(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	w1, res1 := h.task(f32Access(x, ModeOut))
	h.g.Complete(w1, 0)
	_, res2 := h.task(f32Access(x, ModeOut))
	if res2[0].Renamed {
		t.Fatalf("no hazard: writer must reuse storage in place")
	}
	if &res2[0].Instance.([]float32)[0] != &res1[0].Instance.([]float32)[0] {
		t.Fatalf("in-place write must reuse the same storage")
	}
}

func TestInOutChainsSerially(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	t1, _ := h.task(f32Access(x, ModeInOut))
	t2, _ := h.task(f32Access(x, ModeInOut))
	t3, _ := h.task(f32Access(x, ModeInOut))
	if h.isReady(t2) || h.isReady(t3) {
		t.Fatalf("inout chain must serialize (RAW)")
	}
	h.g.Complete(t1, 0)
	if !h.isReady(t2) || h.isReady(t3) {
		t.Fatalf("chain must release one link at a time")
	}
	h.g.Complete(t2, 0)
	if !h.isReady(t3) {
		t.Fatalf("third link not released")
	}
	if st := h.tr.Stats(); st.TrueEdges != 2 || st.Renames != 0 {
		t.Fatalf("stats = %+v, want 2 true edges and no renames", st)
	}
}

func TestInOutRenamesOverPendingReader(t *testing.T) {
	h := newHarness()
	x := []float32{1, 2, 3, 4}
	w, _ := h.task(f32Access(x, ModeOut))
	r, _ := h.task(f32Access(x, ModeIn))
	u, resU := h.task(f32Access(x, ModeInOut))

	if !resU[0].Renamed || resU[0].CopyFrom == nil || resU[0].Copy == nil {
		t.Fatalf("inout over pending reader must rename with a seed copy: %+v", resU[0])
	}
	// u still has the RAW edge on w, but no edge on r.
	if h.isReady(u) {
		t.Fatalf("u must wait for its RAW producer")
	}
	h.g.Complete(w, 0)
	if !h.isReady(u) {
		t.Fatalf("u must be released by producer alone; reader r=%v must not gate it", r.ID)
	}
	if st := h.tr.Stats(); st.RenameCopies != 1 {
		t.Fatalf("stats = %+v, want 1 rename copy", st)
	}
}

func TestInOutInPlaceWithoutReaders(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	w, _ := h.task(f32Access(x, ModeOut))
	_, resU := h.task(f32Access(x, ModeInOut))
	if resU[0].Renamed {
		t.Fatalf("inout with no pending readers must update in place")
	}
	h.g.Complete(w, 0)
}

func TestDisableRenamingAddsFalseEdges(t *testing.T) {
	h := newHarness()
	h.tr.DisableRenaming = true
	x := make([]float32, 4)
	w1, _ := h.task(f32Access(x, ModeOut))
	r, _ := h.task(f32Access(x, ModeIn))
	w2, res2 := h.task(f32Access(x, ModeOut))

	if res2[0].Renamed {
		t.Fatalf("renaming disabled but instance renamed")
	}
	if h.isReady(w2) {
		t.Fatalf("w2 must wait on WAR/WAW edges when renaming is off")
	}
	h.g.Complete(w1, 0)
	if h.isReady(w2) {
		t.Fatalf("w2 must still wait on the pending reader")
	}
	h.g.Complete(r, 0)
	if !h.isReady(w2) {
		t.Fatalf("w2 not released after reader completed")
	}
	st := h.tr.Stats()
	if st.FalseEdges != 2 || st.Renames != 0 {
		t.Fatalf("stats = %+v, want 2 false edges (WAW+WAR)", st)
	}
}

func TestNewObjectReadIsReadyImmediately(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	r, res := h.task(f32Access(x, ModeIn))
	if !h.isReady(r) {
		t.Fatalf("reading pre-existing data must not block")
	}
	if &res[0].Instance.([]float32)[0] != &x[0] {
		t.Fatalf("initial version must be the user's storage")
	}
}

func TestRegionDisjointWritesParallel(t *testing.T) {
	h := newHarness()
	x := make([]float32, 100)
	a, _ := h.task(f32RegionAccess(x, ModeInOut, Interval(0, 49)))
	b, _ := h.task(f32RegionAccess(x, ModeInOut, Interval(50, 99)))
	if !h.isReady(a) || !h.isReady(b) {
		t.Fatalf("disjoint region writes must run in parallel")
	}
}

func TestRegionOverlappingWritesOrdered(t *testing.T) {
	h := newHarness()
	x := make([]float32, 100)
	a, _ := h.task(f32RegionAccess(x, ModeInOut, Interval(0, 60)))
	b, _ := h.task(f32RegionAccess(x, ModeInOut, Interval(50, 99)))
	if h.isReady(b) {
		t.Fatalf("overlapping region writes must be ordered")
	}
	h.g.Complete(a, 0)
	if !h.isReady(b) {
		t.Fatalf("b not released")
	}
}

func TestRegionReadersShareNoEdges(t *testing.T) {
	h := newHarness()
	x := make([]float32, 100)
	w, _ := h.task(f32RegionAccess(x, ModeOut, Interval(0, 99)))
	r1, _ := h.task(f32RegionAccess(x, ModeIn, Interval(0, 40)))
	r2, _ := h.task(f32RegionAccess(x, ModeIn, Interval(10, 50)))
	h.g.Complete(w, 0)
	if !h.isReady(r1) || !h.isReady(r2) {
		t.Fatalf("overlapping region reads must not order each other")
	}
}

func TestRegionMergePattern(t *testing.T) {
	// The mergesort pattern of paper Fig. 7: two quicksorts on disjoint
	// halves, then a merge reading both and writing a destination.
	h := newHarness()
	data := make([]float32, 100)
	dest := make([]float32, 100)
	q1, _ := h.task(f32RegionAccess(data, ModeInOut, Interval(0, 49)))
	q2, _ := h.task(f32RegionAccess(data, ModeInOut, Interval(50, 99)))
	m, _ := h.task(
		f32RegionAccess(data, ModeIn, Interval(0, 49)),
		f32RegionAccess(data, ModeIn, Interval(50, 99)),
		f32RegionAccess(dest, ModeOut, Interval(0, 99)),
	)
	if !h.isReady(q1) || !h.isReady(q2) {
		t.Fatalf("quicksort halves must be parallel")
	}
	if h.isReady(m) {
		t.Fatalf("merge must wait for both halves")
	}
	h.g.Complete(q1, 0)
	if h.isReady(m) {
		t.Fatalf("merge must wait for the second half too")
	}
	h.g.Complete(q2, 0)
	if !h.isReady(m) {
		t.Fatalf("merge not released after both halves")
	}
}

func TestVersionedObjectFlipsToRegioned(t *testing.T) {
	h := newHarness()
	x := make([]float32, 100)
	w, _ := h.task(f32Access(x, ModeOut)) // versioned full write
	r, _ := h.task(f32RegionAccess(x, ModeIn, Interval(0, 10)))
	if h.isReady(r) {
		t.Fatalf("region read must see the pending full-object writer")
	}
	h.g.Complete(w, 0)
	if !h.isReady(r) {
		t.Fatalf("region read not released")
	}
	if st := h.tr.Stats(); st.RegionObjects != 1 {
		t.Fatalf("stats = %+v, want 1 region object", st)
	}
}

func TestRegionedObjectNeverRenames(t *testing.T) {
	h := newHarness()
	x := make([]float32, 100)
	_, _ = h.task(f32RegionAccess(x, ModeIn, Interval(0, 10)))
	_, res := h.task(f32Access(x, ModeOut)) // full write on regioned object
	if res[0].Renamed {
		t.Fatalf("regioned objects must not rename")
	}
	if st := h.tr.Stats(); st.FalseEdges == 0 {
		t.Fatalf("full write over pending region reader must add a WAR edge")
	}
}

func TestPendingWritersVersioned(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	w, _ := h.task(f32Access(x, ModeOut))
	ps := h.tr.PendingWriters(keyOf(x), Full)
	if len(ps) != 1 || ps[0] != w {
		t.Fatalf("PendingWriters = %v, want [w]", ps)
	}
	h.g.Complete(w, 0)
	if ps := h.tr.PendingWriters(keyOf(x), Full); len(ps) != 0 {
		t.Fatalf("PendingWriters after completion = %v, want empty", ps)
	}
}

func TestPendingWritersRegioned(t *testing.T) {
	h := newHarness()
	x := make([]float32, 100)
	a, _ := h.task(f32RegionAccess(x, ModeInOut, Interval(0, 49)))
	b, _ := h.task(f32RegionAccess(x, ModeInOut, Interval(50, 99)))
	ps := h.tr.PendingWriters(keyOf(x), Interval(0, 10))
	if len(ps) != 1 || ps[0] != a {
		t.Fatalf("PendingWriters(0..10) = %v, want [a]", ps)
	}
	ps = h.tr.PendingWriters(keyOf(x), Full)
	if len(ps) != 2 {
		t.Fatalf("PendingWriters(full) = %v, want both", ps)
	}
	h.g.Complete(a, 0)
	h.g.Complete(b, 0)
}

func TestPendingWritersUnknownObject(t *testing.T) {
	h := newHarness()
	if ps := h.tr.PendingWriters(0xdead, Full); ps != nil {
		t.Fatalf("unknown object must have no pending writers")
	}
}

func TestCurrentInstanceFollowsRenames(t *testing.T) {
	h := newHarness()
	x := []float32{1, 2, 3, 4}
	w1, _ := h.task(f32Access(x, ModeOut))
	_, _ = h.task(f32Access(x, ModeIn))
	_, res2 := h.task(f32Access(x, ModeOut)) // renamed
	cur := h.tr.CurrentInstance(keyOf(x))
	if &cur.([]float32)[0] != &res2[0].Instance.([]float32)[0] {
		t.Fatalf("CurrentInstance must be the latest renamed version")
	}
	if h.tr.CurrentInstance(0xbeef) != nil {
		t.Fatalf("unknown key must return nil")
	}
	_ = w1
}

func TestForgetDropsState(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	w, _ := h.task(f32Access(x, ModeOut))
	h.tr.Forget(keyOf(x))
	r, _ := h.task(f32Access(x, ModeIn))
	if !h.isReady(r) {
		t.Fatalf("after Forget the object must be fresh (no deps)")
	}
	h.g.Complete(w, 0)
}

func TestDistinctObjectsIndependent(t *testing.T) {
	h := newHarness()
	x := make([]float32, 4)
	y := make([]float32, 4)
	_, _ = h.task(f32Access(x, ModeInOut))
	b, _ := h.task(f32Access(y, ModeInOut))
	if !h.isReady(b) {
		t.Fatalf("tasks on distinct objects must be independent")
	}
	if st := h.tr.Stats(); st.Objects != 2 {
		t.Fatalf("stats = %+v, want 2 objects", st)
	}
}

func TestCompletedPredecessorsPrunedLazily(t *testing.T) {
	// After readers complete, a subsequent Out must reuse storage in
	// place (no rename) because pruning removes the dead readers.
	h := newHarness()
	x := make([]float32, 4)
	w, _ := h.task(f32Access(x, ModeOut))
	r, _ := h.task(f32Access(x, ModeIn))
	h.g.Complete(w, 0)
	h.g.Complete(r, 0)
	_, res := h.task(f32Access(x, ModeOut))
	if res[0].Renamed {
		t.Fatalf("no live readers: must not rename")
	}
}

// TestReaderListStaysBounded: a read prunes the version's reader list
// only when the list is full, so the list may hold completed readers —
// but never more than twice the live readers of its last walk (plus the
// allocator's rounding), however many reads go by.  A worker drains the
// readers while 100 000 of them are analysed against one object.
func TestReaderListStaysBounded(t *testing.T) {
	const reads, inFlight = 100_000, 48
	ready := make(chan *graph.Node, inFlight) // bounds the live readers
	g := graph.New(func(n *graph.Node, by int) { ready <- n })
	tr := NewTracker(g)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for n := range ready {
			g.Complete(n, 0)
		}
	}()
	x := make([]float32, 4)
	acc := f32Access(x, ModeIn)
	peak := 0
	for i := 0; i < reads; i++ {
		n := g.AddNode(0, "r", false, nil)
		tr.Analyze(n, acc)
		g.Seal(n)
		// Only this thread touches the list; the worker moves the counts.
		v := tr.objects[acc.Key].cur
		peak = max(peak, int(v.counts.Load()>>32))
		if len(v.readers) > 2*peak+8 {
			t.Fatalf("read %d: reader list holds %d entries with at most %d readers ever live", i, len(v.readers), peak)
		}
	}
	close(ready)
	<-drained
	if peak < 2 || peak > inFlight+2 {
		t.Fatalf("peak live readers = %d, want between 2 and %d", peak, inFlight+2)
	}
}

func TestConcurrentAnalyzeAndComplete(t *testing.T) {
	// Stress Analyze racing with completions: the lazy producer/reader
	// pruning reads node state that a completer goroutine flips
	// concurrently.  Run with -race to validate the documented thread
	// safety.
	const nTasks = 2000
	ready := make(chan *graph.Node, nTasks)
	g := graph.New(func(n *graph.Node, by int) { ready <- n })
	tr := NewTracker(g)

	completerDone := make(chan struct{})
	go func() {
		defer close(completerDone)
		for i := 0; i < nTasks; i++ {
			g.Complete(<-ready, 0)
		}
	}()

	bufs := make([][]float32, 4)
	for i := range bufs {
		bufs[i] = make([]float32, 4)
	}
	for i := 0; i < nTasks; i++ {
		n := g.AddNode(0, "t", false, nil)
		tr.Analyze(n, f32Access(bufs[i%len(bufs)], Mode(i%3)))
		g.Seal(n)
	}
	<-completerDone
	// The completer took nTasks nodes off ready: every node became ready.
	if g.Added() != nTasks {
		t.Fatalf("added = %d, want %d", g.Added(), nTasks)
	}
	st := tr.Stats()
	if st.Objects != int64(len(bufs)) {
		t.Fatalf("objects = %d, want %d", st.Objects, len(bufs))
	}
}

func TestGemmAccumulationChain(t *testing.T) {
	// Fig. 1 pattern: k iterations of sgemm_t(A[k], B[k], inout C) form a
	// chain of length k on C, and all chains on distinct C blocks are
	// independent.
	h := newHarness()
	c1 := make([]float32, 4)
	c2 := make([]float32, 4)
	var chain1 []*graph.Node
	for k := 0; k < 3; k++ {
		a := make([]float32, 4)
		b := make([]float32, 4)
		n, _ := h.task(f32Access(a, ModeIn), f32Access(b, ModeIn), f32Access(c1, ModeInOut))
		chain1 = append(chain1, n)
	}
	first2, _ := h.task(f32Access(make([]float32, 4), ModeIn), f32Access(make([]float32, 4), ModeIn), f32Access(c2, ModeInOut))

	if !h.isReady(chain1[0]) || h.isReady(chain1[1]) || h.isReady(chain1[2]) {
		t.Fatalf("C chain must serialize")
	}
	if !h.isReady(first2) {
		t.Fatalf("distinct C blocks must be independent")
	}
	h.g.Complete(chain1[0], 0)
	if !h.isReady(chain1[1]) {
		t.Fatalf("chain link 2 not released")
	}
}
