package deps

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// historyOf returns the region history of the object behind buf.
func (h *harness) historyOf(buf []float32) *regionHistory {
	key := keyOf(buf)
	return h.tr.objects[key].hist
}

// TestPendingWritersManyBuckets: a writer filed under several bucket keys
// is one writer, however many of them a query crosses.
func TestPendingWritersManyBuckets(t *testing.T) {
	h := newHarness()
	x := make([]float32, 128)
	a, _ := h.task(f32RegionAccess(x, ModeOut, Interval(0, 15))) // sets 16-wide buckets
	b, _ := h.task(f32RegionAccess(x, ModeInOut, Interval(20, 120)))
	if hist := h.historyOf(x); len(hist.used) < 7 {
		t.Fatalf("the wide writer is filed under %d buckets, want it spread over 7", len(hist.used))
	}
	for _, q := range []Region{Interval(20, 120), Interval(0, 127), Interval(40, 90), Full} {
		n := 0
		for _, p := range h.tr.PendingWriters(keyOf(x), q) {
			if p == b {
				n++
			}
		}
		if n != 1 {
			t.Errorf("PendingWriters(%v) reports the wide writer %d times, want once", q, n)
		}
	}
	if ps := h.tr.PendingWriters(keyOf(x), Full); len(ps) != 2 {
		t.Errorf("PendingWriters(full) = %v, want both writers", ps)
	}
	if !h.tr.WriterPending(keyOf(x), Interval(100, 100)) || h.tr.WriterPending(keyOf(x), Interval(121, 127)) {
		t.Errorf("WriterPending disagrees with the writer's interval 20..120")
	}
	h.g.Complete(a, 0)
	h.g.Complete(b, 0)
	if h.tr.WriterPending(keyOf(x), Full) {
		t.Errorf("WriterPending after every writer completed")
	}
}

// TestRegionAccessExaminesItsNeighbours pins the cost of a leaf access
// as a count, not a time: against 4096 live disjoint leaves it walks the
// entries of the buckets it touches, not the history — whatever width
// the object's first access suggested for the buckets.
func TestRegionAccessExaminesItsNeighbours(t *testing.T) {
	const leaves, width = 4096, 1000 // not a power of two: leaves straddle buckets
	leaf := func(i int64) Region { return Span(i*width, width) }
	for _, first := range []Region{leaf(0), Interval(7, 7), Interval(0, 1<<30)} {
		h := newHarness()
		x := make([]float32, 1)
		h.task(f32RegionAccess(x, ModeIn, first)) // stays open
		for i := int64(0); i < leaves; i++ {
			h.task(f32RegionAccess(x, ModeInOut, leaf(i)))
		}
		hist := h.historyOf(x)
		for _, tc := range []struct {
			name string
			mode Mode
			r    Region
		}{
			{"reader of one leaf", ModeIn, leaf(2000)},
			{"writer of one leaf", ModeInOut, leaf(3000)},
			{"writer across two leaves", ModeOut, Span(1000*width+width/2, width)},
		} {
			before := hist.examined
			n, _ := h.task(f32RegionAccess(x, tc.mode, tc.r))
			if n.NumPredecessors() == 0 {
				t.Errorf("first %v: %s: no edge to the leaf it overlaps", first, tc.name)
			}
			if got := hist.examined - before; got > 8 {
				t.Errorf("first %v: %s examined %d entries of %d live ones, want O(1)", first, tc.name, got, leaves)
			}
		}
	}
}

// TestRegionHistoryFollowsLiveWindow: a program that streams over an
// object, never coming back, keeps a history in proportion to the tasks
// still open, not to the accesses made.
func TestRegionHistoryFollowsLiveWindow(t *testing.T) {
	const accesses, window, width = 1_000_000, 64, 100
	g := graph.New(func(*graph.Node, int) {})
	tr := NewTracker(g)
	x := make([]float32, 1)
	acc := [1]Access{f32Access(x, ModeInOut)}
	nodes := make([]graph.Node, window) // recycled, as the runtime recycles task records
	out := make([]Resolution, 0, 1)
	var hist *regionHistory
	peak := 0
	for i := 0; i < accesses; i++ {
		n := &nodes[i%window]
		if i >= window {
			g.MarkRunning(n)
			g.Complete(n, 0)
		}
		g.Init(n, 0, "t", false, nil)
		acc[0].Region = Span(int64(i)*width, width)
		tr.AnalyzeBatch(n, acc[:], out)
		g.Seal(n)
		if hist == nil {
			hist = tr.objects[acc[0].Key].hist
		}
		peak = max(peak, hist.slots)
	}
	if peak > 8*window {
		t.Fatalf("history peaked at %d entries for a window of %d live tasks", peak, window)
	}
	if n := len(hist.used) + len(hist.free); n > 8*window {
		t.Fatalf("history holds %d buckets for a window of %d live tasks", n, window)
	}
}

// ---------------------------------------------------------------------
// FuzzRegionHistory: random programs against a brute-force oracle.

// fuzzAccess is the oracle's own record of an access: raw bounds, no
// deps.Region.
type fuzzAccess struct {
	task   int64 // graph node ID
	writes bool
	full   bool
	lo, hi []int64
}

func (a *fuzzAccess) empty() bool {
	for d := range a.lo {
		if a.hi[d] < a.lo[d] {
			return true
		}
	}
	return false
}

// overlaps is §V.A's rule, with the tracker's two conservative cases.
func (a *fuzzAccess) overlaps(b *fuzzAccess) bool {
	if a.empty() || b.empty() {
		return false
	}
	if a.full || b.full || len(a.lo) != len(b.lo) {
		return true
	}
	for d := range a.lo {
		if a.hi[d] < b.lo[d] || b.hi[d] < a.lo[d] {
			return false
		}
	}
	return true
}

// fuzzProgram interprets bytes as a program.
type fuzzProgram struct {
	data []byte
	at   int
}

func (p *fuzzProgram) more() bool { return p.at < len(p.data) }

func (p *fuzzProgram) next() int64 {
	if p.at >= len(p.data) {
		return 0
	}
	p.at++
	return int64(p.data[p.at-1])
}

// region draws one region and the oracle's copy of it.
func (p *fuzzProgram) region() (Region, fuzzAccess) {
	bounded := func(b ...int64) (Region, fuzzAccess) {
		a := fuzzAccess{}
		for d := 0; d < len(b)/2 && d < MaxDims; d++ {
			a.lo, a.hi = append(a.lo, b[2*d]), append(a.hi, b[2*d+1])
		}
		return Rect(b...), a
	}
	switch p.next() % 10 {
	case 0:
		return Full, fuzzAccess{full: true}
	case 1: // empty
		lo := p.next()
		return bounded(lo, lo-1-p.next()%3)
	case 2, 3: // aligned leaves of 16
		lo := p.next() % 32 * 16
		return bounded(lo, lo+15)
	case 4: // nested in or straddling leaves
		lo := p.next() * 2
		return bounded(lo, lo+p.next()%48)
	case 5: // two dimensions
		r, c := p.next()%8*8, p.next()%8*8
		return bounded(r, r+p.next()%24, c, c+p.next()%24)
	case 6: // wide on dimension 0, narrow on dimension 1
		c := p.next() % 8 * 8
		return bounded(0, 1<<62, c, c+7)
	case 7: // far wider than any bucket, or far away
		lo := (p.next() - 128) << 40
		return bounded(lo, lo+p.next()<<uint(p.next()%48))
	case 8: // another dimensionality than the object's other regions
		lo := p.next()
		return bounded(lo, lo+5, 0, 3, lo, lo+1, 7, 9)
	default: // the ends of the coordinate space
		ends := [...]int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		lo, hi := ends[p.next()%7], ends[p.next()%7]
		return bounded(min(lo, hi), max(lo, hi))
	}
}

// runRegionProgram executes the program on a tracker and on the oracle —
// every access ever made, scanned end to end — and compares the edges
// each task got, the counters, the pending-writer probes and the order
// tasks become ready in.
func runRegionProgram(t *testing.T, data []byte) {
	p := &fuzzProgram{data: data}
	var ready []*graph.Node
	g := graph.New(func(n *graph.Node, _ int) { ready = append(ready, n) })
	rec := &graph.Recorder{}
	g.Attach(rec)
	tr := NewTracker(g)

	objs := [2][]float32{make([]float32, 1), make([]float32, 1)}
	var oracle [2][]fuzzAccess
	done := map[int64]bool{}
	wantEdges := map[[2]int64]int{}
	wantPreds := map[int64]int{} // open predecessors per open task
	succs := map[int64][]int64{}
	var recycled []*graph.Node
	var wantTrue, wantFalse int64
	var out []Resolution

	submit := func(accs []Access, shadow []fuzzAccess, objOf []int) {
		var n *graph.Node
		if k := len(recycled); k > 0 && p.next()%2 == 0 {
			n, recycled = recycled[k-1], recycled[:k-1]
			g.Init(n, 0, "t", false, nil)
		} else {
			n = g.AddNode(0, "t", false, nil)
		}
		for i := range shadow {
			a := &shadow[i]
			a.task = n.ID
			for j := range oracle[objOf[i]] {
				e := &oracle[objOf[i]][j]
				if done[e.task] || !e.overlaps(a) || !e.writes && !a.writes {
					continue
				}
				if accs[i].Mode.Reads() && e.writes {
					wantTrue++
				} else {
					wantFalse++
				}
				if e.task != n.ID { // a task is not ordered after itself
					wantEdges[[2]int64{e.task, n.ID}]++
					wantPreds[n.ID]++
					succs[e.task] = append(succs[e.task], n.ID)
				}
			}
			oracle[objOf[i]] = append(oracle[objOf[i]], *a)
		}
		out = tr.AnalyzeBatch(n, accs, out[:0])
		if got := n.NumPredecessors(); got != wantPreds[n.ID] {
			t.Fatalf("task %d has %d predecessors, oracle %d", n.ID, got, wantPreds[n.ID])
		}
		st := tr.Stats()
		if st.TrueEdges != wantTrue || st.FalseEdges != wantFalse {
			t.Fatalf("after task %d: %d true / %d false edges, oracle %d / %d",
				n.ID, st.TrueEdges, st.FalseEdges, wantTrue, wantFalse)
		}
		before := len(ready)
		g.Seal(n)
		if (len(ready) > before) != (wantPreds[n.ID] == 0) {
			t.Fatalf("task %d ready at seal: %v, oracle has %d open predecessors", n.ID, len(ready) > before, wantPreds[n.ID])
		}
	}
	complete := func(i int) {
		n := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		id := n.ID
		want := map[int64]bool{}
		for _, s := range succs[id] {
			if wantPreds[s]--; wantPreds[s] == 0 {
				want[s] = true
			}
		}
		delete(succs, id)
		delete(wantPreds, id)
		before := len(ready)
		g.MarkRunning(n)
		g.Complete(n, 0)
		done[id] = true
		for _, r := range ready[before:] {
			if !want[r.ID] {
				t.Fatalf("completing %d released %d, which the oracle still holds", id, r.ID)
			}
			delete(want, r.ID)
		}
		if len(want) != 0 {
			t.Fatalf("completing %d did not release %v", id, want)
		}
		recycled = append(recycled, n)
	}

	// Both objects start in region mode: an empty region flips them and
	// touches nothing.
	for o := range objs {
		r, a := Interval(1, 0), fuzzAccess{lo: []int64{1}, hi: []int64{0}}
		submit([]Access{f32RegionAccess(objs[o], ModeIn, r)}, []fuzzAccess{a}, []int{o})
	}
	for p.more() {
		switch op := p.next() % 8; {
		case op < 5:
			var accs []Access
			var shadow []fuzzAccess
			var objOf []int
			for k := 1 + p.next()%3; k > 0; k-- {
				o := int(p.next() % 2)
				mode := Mode(p.next() % 3)
				r, a := p.region()
				a.writes = mode.Writes()
				accs = append(accs, f32RegionAccess(objs[o], mode, r))
				shadow = append(shadow, a)
				objOf = append(objOf, o)
			}
			submit(accs, shadow, objOf)
		case op < 7:
			if len(ready) > 0 {
				complete(int(p.next()) % len(ready))
			}
		default:
			o := int(p.next() % 2)
			r, q := p.region()
			want := map[int64]bool{}
			for j := range oracle[o] {
				if e := &oracle[o][j]; e.writes && !done[e.task] && e.overlaps(&q) {
					want[e.task] = true
				}
			}
			got := tr.PendingWriters(keyOf(objs[o]), r)
			for _, n := range got {
				if !want[n.ID] {
					t.Fatalf("PendingWriters(%v) reports task %d, oracle does not", r, n.ID)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("PendingWriters(%v) = %d tasks, oracle %d", r, len(got), len(want))
			}
			if tr.WriterPending(keyOf(objs[o]), r) != (len(want) > 0) {
				t.Fatalf("WriterPending(%v) disagrees with PendingWriters", r)
			}
		}
	}
	for len(ready) > 0 {
		complete(len(ready) - 1)
	}
	if open := g.Added() - int64(len(done)); open != 0 {
		t.Fatalf("%d tasks never became ready", open)
	}

	// Edge for edge: what the graph recorded against the oracle's pairs.
	var dot bytes.Buffer
	if err := rec.WriteDOT(&dot, "fuzz"); err != nil {
		t.Fatal(err)
	}
	gotEdges := map[[2]int64]int{}
	for sc := bufio.NewScanner(&dot); sc.Scan(); {
		var e [2]int64
		if n, _ := fmt.Sscanf(sc.Text(), "  n%d -> n%d;", &e[0], &e[1]); n == 2 {
			gotEdges[e]++
		}
	}
	for e, n := range wantEdges {
		if gotEdges[e] != n {
			t.Fatalf("edge %d -> %d added %d times, oracle %d", e[0], e[1], gotEdges[e], n)
		}
	}
	for e, n := range gotEdges {
		if wantEdges[e] == 0 {
			t.Fatalf("edge %d -> %d added %d times, oracle has none", e[0], e[1], n)
		}
	}
}

func FuzzRegionHistory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 3, 0, 1, 2, 3, 0, 7, 0, 2, 0, 5, 0})
	// Long enough for the history to sweep and re-derive its width, at
	// several mixes of submitting and completing.
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 4<<10)
		rng.Read(prog)
		if seed%2 == 0 {
			// Mostly submissions: histories of hundreds of live entries.
			for i := range prog {
				if i%7 == 0 && prog[i]%8 >= 5 {
					prog[i] = 0
				}
			}
		}
		f.Add(prog)
	}
	f.Fuzz(runRegionProgram)
}
