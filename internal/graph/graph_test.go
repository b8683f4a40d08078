package graph

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// collectReady returns a graph plus a thread-safe log of (node, releasedBy)
// readiness events.
func collectReady() (*Graph, *readyLog) {
	log := &readyLog{by: make(map[int64]int)}
	g := New(func(n *Node, by int) {
		log.mu.Lock()
		log.order = append(log.order, n.ID)
		log.by[n.ID] = by
		log.mu.Unlock()
	})
	return g, log
}

type readyLog struct {
	mu    sync.Mutex
	order []int64
	by    map[int64]int
}

func (l *readyLog) has(id int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, x := range l.order {
		if x == id {
			return true
		}
	}
	return false
}

func (l *readyLog) releasedBy(id int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.by[id]
}

func (l *readyLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}

func TestNodeWithoutDepsReadyAtSeal(t *testing.T) {
	g, log := collectReady()
	n := g.AddNode(0, "t", false, nil)
	if log.len() != 0 {
		t.Fatalf("node fired ready before Seal")
	}
	g.Seal(n)
	if !log.has(n.ID) {
		t.Fatalf("sealed node with no deps not reported ready")
	}
	if by := log.releasedBy(n.ID); by != MainThread {
		t.Fatalf("releasedBy = %d, want MainThread", by)
	}
	if n.State() != StateReady {
		t.Fatalf("state = %v, want ready", n.State())
	}
}

func TestEdgeDefersReadiness(t *testing.T) {
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	b := g.AddNode(0, "b", false, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	if log.has(b.ID) {
		t.Fatalf("b ready before its predecessor completed")
	}
	g.Complete(a, 3)
	if !log.has(b.ID) {
		t.Fatalf("b not ready after predecessor completed")
	}
	if by := log.releasedBy(b.ID); by != 3 {
		t.Fatalf("releasedBy = %d, want 3 (the completing worker)", by)
	}
}

func TestEdgeFromCompletedNodeIsNoOp(t *testing.T) {
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	g.Complete(a, 0)
	b := g.AddNode(0, "b", false, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	if !log.has(b.ID) {
		t.Fatalf("edge from done node must not block successor")
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.AddEdge(a, a)
	g.Seal(a)
	if !log.has(a.ID) {
		t.Fatalf("self edge must be ignored")
	}
}

func TestDiamondDependency(t *testing.T) {
	g, log := collectReady()
	// a → b, a → c, b → d, c → d
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	b := g.AddNode(0, "b", false, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	c := g.AddNode(0, "c", false, nil)
	g.AddEdge(a, c)
	g.Seal(c)
	d := g.AddNode(0, "d", false, nil)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	g.Seal(d)

	g.Complete(a, 0)
	if !log.has(b.ID) || !log.has(c.ID) {
		t.Fatalf("b,c should be ready after a")
	}
	if log.has(d.ID) {
		t.Fatalf("d ready too early")
	}
	g.Complete(b, 1)
	if log.has(d.ID) {
		t.Fatalf("d ready with one pending predecessor")
	}
	g.Complete(c, 2)
	if !log.has(d.ID) {
		t.Fatalf("d not ready after both predecessors")
	}
	if by := log.releasedBy(d.ID); by != 2 {
		t.Fatalf("d released by %d, want 2 (last completer)", by)
	}
}

func TestAddedCount(t *testing.T) {
	g, _ := collectReady()
	a := g.AddNode(0, "a", false, nil)
	g.Seal(a)
	b := g.AddNode(0, "b", false, nil)
	g.Seal(b)
	g.Complete(a, 0)
	g.Complete(b, 0)
	if g.Added() != 2 {
		t.Fatalf("Added = %d, want 2", g.Added())
	}
}

func TestIDsFollowInvocationOrder(t *testing.T) {
	g, _ := collectReady()
	for want := int64(1); want <= 5; want++ {
		n := g.AddNode(0, "t", false, nil)
		if n.ID != want {
			t.Fatalf("ID = %d, want %d", n.ID, want)
		}
		g.Seal(n)
	}
}

func TestConcurrentCompletionsReleaseOnce(t *testing.T) {
	// A node with many predecessors completed from many goroutines must
	// fire its readiness callback exactly once.
	const preds = 64
	var fired atomic.Int32
	g := New(func(n *Node, by int) { fired.Add(1) })
	sink := g.AddNode(0, "sink", false, nil)
	var ps []*Node
	for i := 0; i < preds; i++ {
		p := g.AddNode(0, "p", false, nil)
		g.Seal(p)
		g.AddEdge(p, sink)
		ps = append(ps, p)
	}
	g.Seal(sink)

	var wg sync.WaitGroup
	for i, p := range ps {
		wg.Add(1)
		go func(i int, p *Node) {
			defer wg.Done()
			g.Complete(p, i)
		}(i, p)
	}
	wg.Wait()
	// preds roots fired at Seal + sink once.
	if got := fired.Load(); got != preds+1 {
		t.Fatalf("ready fired %d times, want %d", got, preds+1)
	}
}

func TestRecorderCountsAndRoots(t *testing.T) {
	g, _ := collectReady()
	rec := &Recorder{}
	g.Attach(rec)
	a := g.AddNode(0, "alpha", false, nil)
	g.Seal(a)
	b := g.AddNode(1, "beta", true, nil)
	g.AddEdge(a, b)
	g.Seal(b)
	c := g.AddNode(0, "alpha", false, nil)
	g.AddEdge(b, c)
	g.Seal(c)
	g.Detach()
	// Node added after Detach must not be recorded.
	d := g.AddNode(0, "alpha", false, nil)
	g.Seal(d)

	if rec.NumNodes() != 3 || rec.NumEdges() != 2 {
		t.Fatalf("recorded %d nodes / %d edges, want 3 / 2", rec.NumNodes(), rec.NumEdges())
	}
	kc := rec.KindCounts()
	if kc["alpha"] != 2 || kc["beta"] != 1 {
		t.Fatalf("kind counts = %v", kc)
	}
	roots := rec.Roots()
	if len(roots) != 1 || roots[0] != a.ID {
		t.Fatalf("roots = %v, want [%d]", roots, a.ID)
	}
	if cpl := rec.CriticalPathLength(); cpl != 3 {
		t.Fatalf("critical path = %d, want 3", cpl)
	}
}

func TestRecorderDOT(t *testing.T) {
	g, _ := collectReady()
	rec := &Recorder{}
	g.Attach(rec)
	a := g.AddNode(0, "spotrf_t", false, nil)
	g.Seal(a)
	b := g.AddNode(1, "strsm_t", true, nil)
	g.AddEdge(a, b)
	g.Seal(b)

	var sb strings.Builder
	if err := rec.WriteDOT(&sb, "cholesky"); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph \"cholesky\"", "n1 ", "n2 ", "n1 -> n2", "doubleoctagon", "spotrf_t"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestCriticalPathOfChainProperty(t *testing.T) {
	// Property: a pure chain of n tasks has critical path length n,
	// n-1 edges, and exactly one root.
	f := func(raw uint8) bool {
		n := int(raw%40) + 1
		g, _ := collectReady()
		rec := &Recorder{}
		g.Attach(rec)
		var prev *Node
		for i := 0; i < n; i++ {
			nd := g.AddNode(0, "t", false, nil)
			if prev != nil {
				g.AddEdge(prev, nd)
			}
			g.Seal(nd)
			prev = nd
		}
		return rec.CriticalPathLength() == n &&
			rec.NumEdges() == n-1 &&
			len(rec.Roots()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateString(t *testing.T) {
	cases := map[NodeState]string{
		StateBuilding: "building",
		StateReady:    "ready",
		StateRunning:  "running",
		StateDone:     "done",
		NodeState(9):  "state(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestMarkRunning(t *testing.T) {
	g, _ := collectReady()
	n := g.AddNode(0, "t", false, nil)
	g.Seal(n)
	g.MarkRunning(n)
	if n.State() != StateRunning {
		t.Fatalf("state = %v, want running", n.State())
	}
	g.Complete(n, 0)
	if !n.Done() {
		t.Fatalf("node not done after Complete")
	}
}

// holdLog records what Complete released; each hold on it is a testHold
// carrying its tag.
type holdLog struct {
	tags  []int
	check func()
}

type testHold struct {
	log *holdLog
	tag int
}

func (h *testHold) ReleaseHold(n *Node) {
	h.log.tags = append(h.log.tags, h.tag)
	if h.log.check != nil {
		h.log.check()
	}
}

func TestHoldsReleasedOnceAfterSuccessors(t *testing.T) {
	g, log := collectReady()
	a := g.AddNode(0, "a", false, nil)
	b := g.AddNode(0, "b", false, nil)
	h := &holdLog{}
	// Holds drop after successors are released, so a release observes
	// the dependent already made ready.
	sawReady := false
	h.check = func() { sawReady = log.has(b.ID) }
	// More holds than the node stores inline.
	for k := 0; k < 5; k++ {
		a.AddHold(&testHold{log: h, tag: k})
	}
	g.Seal(a)
	g.AddEdge(a, b)
	g.Seal(b)
	if len(h.tags) != 0 {
		t.Fatalf("hold released before completion")
	}
	g.Complete(a, 3)
	if len(h.tags) != 5 || h.tags[0] != 0 || h.tags[4] != 4 {
		t.Fatalf("released holds %v, want 0..4 once each", h.tags)
	}
	if !sawReady {
		t.Fatalf("holds must drop after successors are released")
	}
}

// TestInitStartsNewLife: a node started over in the same storage gets a
// fresh ID, sheds the previous life's state, keeps nothing registered
// on it, and turns every Ref to the previous life Done.
func TestInitStartsNewLife(t *testing.T) {
	g, log := collectReady()
	var n Node
	var room Room
	n.Reserve(&room)
	h := &holdLog{}
	g.Init(&n, 1, "first", false, nil)
	first := n.Ref()
	succ := g.AddNode(0, "s", false, nil)
	g.AddEdge(&n, succ)
	g.Seal(succ)
	n.AddHold(&testHold{log: h, tag: 7})
	if room.succs[0] != succ || room.holds[0] == nil {
		t.Fatalf("reserved room unused: succ %v hold %v", room.succs[0], room.holds[0])
	}
	n.MarkPoisoned()
	n.SetAffinity(2)
	g.Seal(&n)
	if first.Done() {
		t.Fatalf("Ref done while its life is open")
	}
	g.Complete(&n, 4)
	if !first.Done() || len(h.tags) != 1 {
		t.Fatalf("after Complete: done %v, releases %v", first.Done(), h.tags)
	}
	if room.succs[0] != nil || room.holds[0] != nil {
		t.Fatalf("a completed node still references its successor or hold")
	}

	g.Init(&n, 2, "second", true, nil)
	second := n.Ref()
	if n.ID == first.id || n.State() != StateBuilding || n.Poisoned() ||
		n.Affinity() != -1 || n.NumPredecessors() != 0 || n.Label != "second" || !n.Priority {
		t.Fatalf("second life carries state of the first: %+v", &n)
	}
	if !first.Done() || second.Done() {
		t.Fatalf("Ref.Done: first %v (want true), second %v (want false)", first.Done(), second.Done())
	}
	g.Seal(&n)
	g.Complete(&n, 0)
	if len(h.tags) != 1 {
		t.Fatalf("first life's hold released again: %v", h.tags)
	}
	if log.len() != 3 || succ.State() != StateReady {
		t.Fatalf("ready events %d (want 3), succ %v (want ready, not run)", log.len(), succ.State())
	}
}

// TestAddEdgeFromDonePoisonedTaints: a dependent analyzed after a
// poisoned task completed inherits the taint although no edge is added.
func TestAddEdgeFromDonePoisonedTaints(t *testing.T) {
	g, _ := collectReady()
	bad := g.AddNode(0, "bad", false, nil)
	g.Seal(bad)
	bad.MarkPoisoned()
	g.Complete(bad, 0)
	good := g.AddNode(0, "good", false, nil)
	g.Seal(good)
	g.Complete(good, 0)

	dep := g.AddNode(0, "dep", false, nil)
	g.AddEdge(good, dep)
	if dep.Poisoned() {
		t.Fatalf("edge from a clean done node tainted the dependent")
	}
	g.AddEdge(bad, dep)
	if !dep.Poisoned() || dep.NumPredecessors() != 0 {
		t.Fatalf("poisoned %v preds %d, want tainted and no edge", dep.Poisoned(), dep.NumPredecessors())
	}
}

// TestSteadyStateSuccessorListsAllocateNothing: with the caller
// recycling its nodes, a producer whose successors outgrow its room
// moves them into the graph's store and gives the storage back when it
// completes, so a node that takes the wide role after narrow ones, or
// the narrow role after a wide one, allocates nothing either way.
func TestSteadyStateSuccessorListsAllocateNothing(t *testing.T) {
	const wide = 192
	g := New(func(*Node, int) {})
	type rec struct {
		n    Node
		room Room
	}
	const producers = 7 // odd: each takes both widths in turn
	recs := make([]rec, producers+wide)
	for i := range recs {
		recs[i].n.Reserve(&recs[i].room)
	}
	round := 0
	step := func() {
		// The producers take turns and every other round is wide.
		p := &recs[round%producers].n
		width := 1
		if round%2 == 0 {
			width = wide
		}
		round++
		g.Init(p, 0, "p", false, nil)
		g.Seal(p)
		for i := 0; i < width; i++ {
			s := &recs[producers+i].n
			g.Init(s, 0, "s", false, nil)
			g.AddEdge(p, s)
			g.Seal(s)
		}
		g.MarkRunning(p)
		g.Complete(p, 0)
		for i := 0; i < width; i++ {
			s := &recs[producers+i].n
			g.MarkRunning(s)
			g.Complete(s, 0)
		}
	}
	step()
	if a := testing.AllocsPerRun(30, step); a != 0 {
		t.Fatalf("successor lists allocate %v times per round in steady state, want 0", a)
	}
	if n := &recs[0].n; cap(n.succs) != len(recs[0].room.succs) {
		t.Fatalf("a completed producer keeps a list of capacity %d, not its room", cap(n.succs))
	}
}
