package deps

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestAnalyzeBatchSemantics checks that a batched entry resolves exactly
// like per-access Analyze calls: same edges, same renaming decisions.
func TestAnalyzeBatchSemantics(t *testing.T) {
	h := newHarness()
	x := make([]float32, 8)
	y := make([]float32, 8)

	// Writer of x, then a batched task reading x and writing y.
	writer, _ := h.task(f32Access(x, ModeOut))
	reader := h.g.AddNode(0, "r", false, nil)
	res := h.tr.AnalyzeBatch(reader, []Access{
		f32Access(x, ModeIn),
		f32Access(y, ModeOut),
	}, nil)
	h.g.Seal(reader)
	if len(res) != 2 {
		t.Fatalf("got %d resolutions, want 2", len(res))
	}
	if res[0].Renamed || res[1].Renamed {
		t.Fatalf("nothing should rename here: %+v", res)
	}
	if h.isReady(reader) {
		t.Fatalf("reader became ready despite pending writer")
	}
	h.g.Complete(writer, 1)
	if !h.isReady(reader) {
		t.Fatalf("completing the writer must release the reader")
	}
	st := h.tr.Stats()
	if st.TrueEdges != 1 || st.Objects != 2 {
		t.Fatalf("stats = %+v, want 1 true edge over 2 objects", st)
	}
}

// TestAnalyzeBatchRenames checks the renaming engine fires identically
// through the batched path: a WAW hazard inside one batch allocates a
// fresh instance.
func TestAnalyzeBatchRenames(t *testing.T) {
	h := newHarness()
	x := make([]float32, 8)
	n := h.g.AddNode(0, "t", false, nil)
	res := h.tr.AnalyzeBatch(n, []Access{f32Access(x, ModeOut)}, nil)
	h.g.Seal(n)
	n2 := h.g.AddNode(0, "t2", false, nil)
	res2 := h.tr.AnalyzeBatch(n2, []Access{f32Access(x, ModeOut)}, nil)
	h.g.Seal(n2)
	if res[0].Renamed {
		t.Fatalf("first write must not rename")
	}
	if !res2[0].Renamed {
		t.Fatalf("second write over a pending one must rename")
	}
	if st := h.tr.Stats(); st.Renames != 1 {
		t.Fatalf("stats = %+v, want 1 rename", st)
	}
}

// analyzeAgainstCompleters is the traffic a tracker sees: the calling
// goroutine, its owner, analyses tasks one after the other, completers
// goroutines complete them as they become ready, and one more goroutine
// takes Stats snapshots, none of whose counters may ever decrease.  It
// returns the tracker once every task has completed.
func analyzeAgainstCompleters(t *testing.T, tasks, completers int, accesses func(i int) []Access) *Tracker {
	t.Helper()
	ready := make(chan *graph.Node, tasks)
	g := graph.New(func(n *graph.Node, by int) { ready <- n })
	tr := NewTracker(g)

	var open, exited sync.WaitGroup
	open.Add(tasks)
	for w := 0; w < completers; w++ {
		exited.Add(1)
		go func() {
			defer exited.Done()
			for n := range ready {
				g.MarkRunning(n)
				g.Complete(n, w)
				open.Done()
			}
		}()
	}
	stop := make(chan struct{})
	snapshots := make(chan error, 1)
	go func() {
		var last Stats
		for {
			select {
			case <-stop:
				snapshots <- nil
				return
			default:
			}
			st := tr.Stats()
			back := st.PoolHits < last.PoolHits || st.PoolMisses < last.PoolMisses
			was := last.counted()
			for i, n := range st.counted() {
				back = back || *n < *was[i]
			}
			if back {
				snapshots <- fmt.Errorf("Stats went back from %+v to %+v", last, st)
				return
			}
			last = st
			runtime.Gosched()
		}
	}()

	var out []Resolution
	for i := 0; i < tasks; i++ {
		n := g.AddNode(0, "t", false, nil)
		out = tr.AnalyzeBatch(n, accesses(i), out[:0])
		g.Seal(n)
	}
	open.Wait()
	close(ready)
	exited.Wait()
	close(stop)
	if err := <-snapshots; err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTrackerConcurrentAnalyze: a reader and an inout per task, over few
// enough objects that analysis keeps meeting versions whose holders are
// completing.  Run under -race it shows that what the owner touches
// without a lock is the owner's alone.
func TestTrackerConcurrentAnalyze(t *testing.T) {
	const tasks, objects = 4000, 8
	bufs := make([][]float32, objects)
	for i := range bufs {
		bufs[i] = make([]float32, 4)
	}
	accesses := func(i int) []Access {
		r := i % objects
		return []Access{
			f32Access(bufs[r], ModeIn),
			f32Access(bufs[(r+1+i/objects%(objects-1))%objects], ModeInOut), // never bufs[r]
		}
	}
	st := analyzeAgainstCompleters(t, tasks, 4, accesses).Stats()

	// TrueEdges does not depend on when tasks complete: a run that
	// completes each task before the next is analysed counts the same.
	h := newHarness()
	for i := 0; i < tasks; i++ {
		n, _ := h.task(accesses(i)...)
		h.g.Complete(n, 0)
	}
	want := h.tr.Stats()
	if st.Objects != objects || st.TrueEdges != want.TrueEdges || st.FalseEdges != 0 {
		t.Fatalf("objects %d, true edges %d, false edges %d; want %d, %d, 0",
			st.Objects, st.TrueEdges, st.FalseEdges, objects, want.TrueEdges)
	}
}
