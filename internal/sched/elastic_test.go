package sched

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// dequeSizes reports each worker deque's occupancy for assertions.
func dequeSizes(s *Locality) []int {
	out := make([]int, len(s.deques))
	for i := range s.deques {
		out[i] = s.deques[i].size()
	}
	return out
}

// seedDeque force-loads nodes onto worker w's deque (the releasedBy
// push path, as if w's completions released them).
func seedDeque(t *testing.T, s *Locality, w int, ids ...int64) {
	t.Helper()
	for _, id := range ids {
		if !func() bool { _, ok := s.deques[w].pushBack(mkNode(id, false)); return ok }() {
			t.Fatalf("deque %d full seeding node %d", w, id)
		}
	}
}

// TestStealOrderNearBeforeFar pins the hierarchical probe order: with a
// synthetic 2-group topology and work available in both a same-group
// and a remote deque, a thief must take from the same-group victim
// first — and the steal must book as local, not remote.
func TestStealOrderNearBeforeFar(t *testing.T) {
	// 8 slots, helper 0; groups {0..3} {4..7}.
	s := NewLocalitySharedElastic(8, 1, topo.Split(8, 2), nil)

	// Thief is worker 1.  The flat scan would probe 2,3,4,... and the
	// hierarchical one also starts at 2 — so stage work where the two
	// orders disagree: victim 3 (same group, flat distance 2) and victim
	// 2's group-mate beaten by remote 4,5 in flat order from worker 6.
	// Use thief 6 (group {4..7}): flat order probes 7,0,1,2,...; with
	// work only on 0 (remote) and 5 (near, flat distance 7), flat steals
	// from 0 first while hierarchical must take 5.
	seedDeque(t, s, 0, 100, 101)
	seedDeque(t, s, 5, 200, 201)

	n := s.TryNext(6)
	if n == nil || n.ID != 200 {
		t.Fatalf("thief 6 stole %v, want node 200 from same-group victim 5", n)
	}
	st := s.Stats()
	if st.LocalSteals == 0 || st.RemoteSteals != 0 {
		t.Errorf("steal booked local=%d remote=%d, want local>0 remote=0", st.LocalSteals, st.RemoteSteals)
	}

	// Drain the rest of the neighbourhood (the remainder of the batch
	// landed on 6's own deque); only then may the thief go remote.
	for {
		n := s.TryNext(6)
		if n == nil {
			t.Fatal("ran dry before the remote victim's tasks")
		}
		if n.ID >= 100 && n.ID < 200 {
			break // first remote task
		}
	}
	st = s.Stats()
	if st.RemoteSteals == 0 {
		t.Errorf("remote steal not booked: %+v", st)
	}
}

// TestStealOrderFlatCountersZero: without a topology the scan has no
// distance to attribute, so the split counters must stay zero even
// though steals happen.
func TestStealOrderFlatCountersZero(t *testing.T) {
	s := NewLocalityShared(4, 1)
	seedDeque(t, s, 2, 1, 2)
	if n := s.TryNext(3); n == nil {
		t.Fatal("steal failed")
	}
	st := s.Stats()
	if st.Steals == 0 {
		t.Fatal("steal not counted")
	}
	if st.LocalSteals != 0 || st.RemoteSteals != 0 {
		t.Errorf("flat pool booked local=%d remote=%d, want 0/0", st.LocalSteals, st.RemoteSteals)
	}
}

// TestEvictSpillsToInjector: evicting a worker moves its whole deque to
// the injector in FIFO order and empties the deque.
func TestEvictSpillsToInjector(t *testing.T) {
	s := NewLocalityShared(4, 1)
	seedDeque(t, s, 2, 10, 11, 12)
	if moved := s.Evict(2); moved != 3 {
		t.Fatalf("Evict moved %d, want 3", moved)
	}
	if got := dequeSizes(s)[2]; got != 0 {
		t.Fatalf("deque 2 still holds %d after evict", got)
	}
	// Another worker pops them from the injector in creation order.
	for want := int64(10); want <= 12; want++ {
		n := s.TryNext(3)
		if n == nil || n.ID != want {
			t.Fatalf("after evict got %v, want node %d", n, want)
		}
	}
	if s.Evict(2) != 0 {
		t.Error("second evict of empty deque moved tasks")
	}
}

// TestAffinityRedirectToGroup: an affinity hint to a retired worker
// lands on an active worker in the same topology group, not on the dead
// deque and not on the injector.
func TestAffinityRedirectToGroup(t *testing.T) {
	as := NewActiveSet(8)
	s := NewLocalitySharedElastic(8, 1, topo.Split(8, 2), as)
	as.Set(6, false) // retire worker 6 (group {4..7})

	n := mkNode(1, false)
	n.SetAffinity(6)
	s.Push(n, graph.MainThread)

	sizes := dequeSizes(s)
	if sizes[6] != 0 {
		t.Fatalf("task landed on retired worker 6's deque")
	}
	target := -1
	for w, sz := range sizes {
		if sz > 0 {
			target = w
		}
	}
	if target < 4 || target > 7 {
		t.Fatalf("redirected to worker %d, want a group-{4..7} worker", target)
	}
	if st := s.Stats(); st.AffinityPushes != 1 {
		t.Errorf("AffinityPushes = %d, want 1", st.AffinityPushes)
	}
}

// TestAffinityRedirectWholeGroupRetired: with every group member
// retired the hint is abandoned to the injector and counted as a miss.
func TestAffinityRedirectWholeGroupRetired(t *testing.T) {
	as := NewActiveSet(8)
	s := NewLocalitySharedElastic(8, 1, topo.Split(8, 2), as)
	for w := 4; w < 8; w++ {
		as.Set(w, false)
	}

	n := mkNode(1, false)
	n.SetAffinity(5)
	s.Push(n, graph.MainThread)

	for w, sz := range dequeSizes(s) {
		if sz != 0 {
			t.Fatalf("task landed on deque %d, want injector", w)
		}
	}
	st := s.Stats()
	if st.AffinityMisses != 1 || st.PushMain != 1 {
		t.Errorf("misses=%d pushMain=%d, want 1/1", st.AffinityMisses, st.PushMain)
	}
}

// TestAffinityNilActiveSetUnchanged: a fixed pool (nil ActiveSet, nil
// topology) honors hints exactly as before.
func TestAffinityNilActiveSetUnchanged(t *testing.T) {
	s := NewLocalitySharedElastic(4, 1, nil, nil)
	n := mkNode(1, false)
	n.SetAffinity(2)
	s.Push(n, graph.MainThread)
	if got := dequeSizes(s)[2]; got != 1 {
		t.Fatalf("hinted deque holds %d, want 1", got)
	}
}

// TestMuxEvictAndLoad: the mux-level evict reaches every client's
// policy, and Load sums the per-client gauges.
func TestMuxEvictAndLoad(t *testing.T) {
	m := NewTokenMux(4)
	a := m.Attach(NewLocalityShared(4, 1), 0)
	b := m.Attach(NewLocalityShared(4, 1), 0)
	m.Push(a, mkNode(1, false), 2)
	m.Push(b, mkNode(2, false), 2)
	m.Push(b, mkNode(3, false), 2)
	if got := m.Load(); got != 3 {
		t.Fatalf("Load = %d, want 3", got)
	}
	if moved := m.Evict(2); moved != 3 {
		t.Fatalf("mux Evict moved %d, want 3", moved)
	}
	// Tasks are still poppable (from the injectors) by another worker.
	seen := 0
	for {
		n := m.tryNext(3, nil)
		if n == nil {
			break
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("after mux evict popped %d tasks, want 3", seen)
	}
	if got := m.Load(); got != 0 {
		t.Fatalf("Load after drain = %d, want 0", got)
	}
}

// TestActiveSetNilSafe: the nil set is the fixed pool — everything
// active, sets ignored.
func TestActiveSetNilSafe(t *testing.T) {
	var as *ActiveSet
	if !as.Active(3) {
		t.Error("nil ActiveSet must report active")
	}
	as.Set(3, false) // must not panic
	as = NewActiveSet(4)
	if as.Count(0, 4) != 4 {
		t.Errorf("fresh set Count = %d, want 4", as.Count(0, 4))
	}
	as.Set(2, false)
	if as.Count(0, 4) != 3 || as.Active(2) {
		t.Error("Set(2,false) not reflected")
	}
	if !as.Active(99) {
		t.Error("out-of-range must report active")
	}
}
