package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cacheline"
	"repro/internal/graph"
)

func TestDequeBounds(t *testing.T) {
	var d deque
	d.init(4)
	for i := int64(1); i <= 4; i++ {
		if _, ok := d.pushBack(mkNode(i, false)); !ok {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if _, ok := d.pushBack(mkNode(5, false)); ok {
		t.Fatalf("push beyond capacity must be rejected")
	}
	if n := d.popBack(); n.ID != 4 {
		t.Fatalf("popBack = %d, want 4", n.ID)
	}
	if d.size() != 3 {
		t.Fatalf("size = %d, want 3", d.size())
	}
}

func TestDequeGrabHalf(t *testing.T) {
	var d deque
	d.init(8)
	for i := int64(1); i <= 5; i++ {
		d.pushBack(mkNode(i, false))
	}
	buf := make([]*graph.Node, 8)
	k := d.grabHalf(buf, 1)
	if k != 3 {
		t.Fatalf("grabHalf of 5 = %d, want 3 (older half, rounded up)", k)
	}
	for i := 0; i < k; i++ {
		if buf[i].ID != int64(i+1) {
			t.Fatalf("stolen[%d] = %d, want %d (oldest first)", i, buf[i].ID, i+1)
		}
	}
	if d.size() != 2 {
		t.Fatalf("victim keeps %d, want 2", d.size())
	}
	// minSize lets a polite thief refuse a near-empty victim.
	var s deque
	s.init(4)
	s.pushBack(mkNode(9, false))
	if k := s.grabHalf(buf, 2); k != 0 {
		t.Fatalf("grabHalf(minSize=2) of singleton = %d, want 0", k)
	}
	if k := s.grabHalf(buf, 1); k != 1 || buf[0].ID != 9 {
		t.Fatalf("grabHalf(minSize=1) of singleton = %d, want the task", k)
	}
}

// TestLocalityStealHalfKeepsFIFO: a thief takes the victim's older half,
// runs the oldest, and replays the rest from its own deque in the same
// FIFO order before anything newer.
func TestLocalityStealHalfKeepsFIFO(t *testing.T) {
	s := NewLocality(3)
	for i := int64(1); i <= 5; i++ {
		s.Push(mkNode(i, false), 1)
	}
	// Worker 2 (a dedicated worker — the main thread's steals are capped
	// at one task) takes the victim's older half in one batch.
	if n := s.TryNext(2); n.ID != 1 {
		t.Fatalf("steal must return the oldest, got %d", n.ID)
	}
	st := s.Stats()
	if st.Steals != 3 || st.StealBatches != 1 {
		t.Fatalf("stats = %+v, want 3 tasks over 1 steal batch", st)
	}
	// The remainder of the batch replays oldest-first from our own deque.
	if n := s.TryNext(2); n.ID != 2 {
		t.Fatalf("second = %d, want 2", n.ID)
	}
	if n := s.TryNext(2); n.ID != 3 {
		t.Fatalf("third = %d, want 3", n.ID)
	}
	// The victim keeps its newest tasks, consumed LIFO as usual.
	if n := s.TryNext(1); n.ID != 5 {
		t.Fatalf("victim pops %d, want 5", n.ID)
	}
	if st := s.Stats(); st.PopOwn != 3 || st.Steals != 3 {
		t.Fatalf("stats = %+v, want 3 own pops and 3 stolen", st)
	}
}

// TestLocalityMainStealsOneTask: the main thread's steal is capped at a
// single task, so it can never leave a stolen batch stranded on its own
// deque while dedicated workers sleep.
func TestLocalityMainStealsOneTask(t *testing.T) {
	s := NewLocality(2)
	for i := int64(1); i <= 5; i++ {
		s.Push(mkNode(i, false), 1)
	}
	if n := s.TryNext(0); n.ID != 1 {
		t.Fatalf("main steal = %d, want the oldest", n.ID)
	}
	st := s.Stats()
	if st.Steals != 1 || st.StealBatches != 1 {
		t.Fatalf("stats = %+v, want exactly one stolen task", st)
	}
	if got := s.deques[0].size(); got != 0 {
		t.Fatalf("main kept %d stolen tasks on its deque, want 0", got)
	}
	if got := s.deques[1].size(); got != 4 {
		t.Fatalf("victim keeps %d, want 4", got)
	}
}

func TestLocalityDequeOverflowSpills(t *testing.T) {
	s := newLocalityCap(2, 2)
	for i := int64(1); i <= 5; i++ {
		s.Push(mkNode(i, false), 1)
	}
	st := s.Stats()
	if st.PushOwn != 2 || st.Spills != 3 || st.PushMain != 3 {
		t.Fatalf("stats = %+v, want 2 own + 3 spilled", st)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5 (no task lost on overflow)", s.Len())
	}
	seen := map[int64]bool{}
	for i := 0; i < 5; i++ {
		n := s.TryNext(1)
		if n == nil {
			t.Fatalf("task %d missing after spill", i)
		}
		seen[n.ID] = true
	}
	if len(seen) != 5 {
		t.Fatalf("drained %d distinct tasks, want 5", len(seen))
	}
}

func TestSchedulerParkStats(t *testing.T) {
	m := NewTokenMux(1)
	c := m.Attach(NewLocality(1), 0)
	got := make(chan *graph.Node, 1)
	go func() { got <- m.Get(0, nil, nil) }()
	time.Sleep(20 * time.Millisecond) // let the worker park
	m.Push(c, mkNode(1, false), graph.MainThread)
	select {
	case n := <-got:
		if n.ID != 1 {
			t.Fatalf("Get = %d, want 1", n.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("push did not unpark the worker")
	}
	st := m.Stats()
	if st.Parks == 0 || st.Unparks == 0 {
		t.Fatalf("stats = %+v, want parks and unparks recorded", st)
	}
}

// TestSchedulerWorkStealingStress runs many workers that consume tasks
// and release successors onto their own deques (the runtime's completion
// pattern), so pushes, own pops, steal-half batches and parking all race.
// Run under -race this is the scheduler's data-race canary; it also
// checks no task is lost or duplicated.
func TestSchedulerWorkStealingStress(t *testing.T) {
	const workers = 8
	const total = 50000
	m := NewTokenMux(workers)
	c := m.Attach(NewLocality(workers), 0)
	var budget atomic.Int64 // tasks left to create
	budget.Store(total)
	var pushed, consumed atomic.Int64
	spawn := func(by int) {
		if budget.Add(-1) >= 0 {
			id := pushed.Add(1)
			m.Push(c, mkNode(id, id%97 == 0), by)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				n := m.Get(self, nil, nil)
				if n == nil {
					return
				}
				consumed.Add(1)
				// Completing a task releases up to three successors on
				// this worker's own deque — fan-out that forces wakes
				// and steal-half rebalancing.
				for j := 0; j < 3; j++ {
					spawn(self)
				}
			}
		}(w)
	}
	// Seed from the main thread.
	for i := 0; i < 64; i++ {
		spawn(graph.MainThread)
	}
	deadline := time.Now().Add(30 * time.Second)
	for consumed.Load() < pushed.Load() || budget.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stress stalled: consumed %d of %d pushed, budget %d",
				consumed.Load(), pushed.Load(), budget.Load())
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	wg.Wait()
	if consumed.Load() != pushed.Load() {
		t.Fatalf("consumed %d, pushed %d", consumed.Load(), pushed.Load())
	}
	st := c.Stats()
	if st.PushOwn == 0 || st.PopOwn == 0 {
		t.Fatalf("stress never used the own deques: %+v", st)
	}
	// Every consumed task came from exactly one source: a list pop or the
	// head of a steal batch (the batch's remainder is re-popped from the
	// thief's own deque and shows up under PopOwn).  Whether steals occur
	// depends on load (a saturated injector preempts stealing), so steal
	// coverage lives in TestWorkersStealFromBusyPeer.
	if got := st.PopHigh + st.PopOwn + st.PopMain + st.StealBatches; got != consumed.Load() {
		t.Fatalf("pop counters %d != consumed %d: %+v", got, consumed.Load(), st)
	}
}

// TestLocalityWakeHints pins down the Push return value: a lone
// self-push elides the wake, but not while high-priority work is
// pending (the caller's next lookup would take the high task and the
// lone successor would strand behind it).
func TestLocalityWakeHints(t *testing.T) {
	s := NewLocality(2)
	if wake := s.Push(mkNode(1, false), 1); wake {
		t.Fatalf("lone self-push must elide the wake")
	}
	if wake := s.Push(mkNode(2, false), 1); !wake {
		t.Fatalf("second task on the deque must wake a thief")
	}
	s.TryNext(1)
	s.TryNext(1)                              // drain the deque
	s.Push(mkNode(3, true), graph.MainThread) // high-priority pending
	if wake := s.Push(mkNode(4, false), 1); !wake {
		t.Fatalf("self-push with high-priority work pending must wake")
	}
	s.TryNext(1) // pops the high task
	s.TryNext(1) // pops task 4
	if wake := s.Push(mkNode(5, false), 1); wake {
		t.Fatalf("high drained: lone self-push must elide the wake again")
	}
	if wake := s.Push(mkNode(6, false), 0); !wake {
		t.Fatalf("a push onto the main thread's deque must always wake")
	}
}

// TestWorkersStealFromBusyPeer forces the steal path under concurrency:
// worker 1 queues a pile of released tasks on its own deque and then
// stalls in a long "task body", so the only way the other workers can
// drain the pile is steal-half from deque 1.
func TestWorkersStealFromBusyPeer(t *testing.T) {
	const workers = 4
	const pile = 10
	m := NewTokenMux(workers)
	c := m.Attach(NewLocality(workers), 0)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for w := 2; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				n := m.Get(self, nil, nil)
				if n == nil {
					return
				}
				consumed.Add(1)
			}
		}(w)
	}
	// "Worker 1": releases a pile onto its own deque mid-task, then
	// never comes back for it (stuck in a long task body).
	for i := int64(1); i <= pile; i++ {
		m.Push(c, mkNode(i, false), 1)
	}
	deadline := time.Now().Add(10 * time.Second)
	for consumed.Load() < pile {
		if time.Now().After(deadline) {
			t.Fatalf("workers drained %d of %d from the busy peer", consumed.Load(), pile)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	wg.Wait()
	st := c.Stats()
	if st.Steals == 0 || st.StealBatches == 0 {
		t.Fatalf("the pile can only drain via steals: %+v", st)
	}
}

// TestDequeGap: deques sit in a slice, one per worker, and only the
// padding keeps one worker's pushes and pops off its neighbour's lines —
// the cacheline analyzer cannot see it, the writers being the same kind.
func TestDequeGap(t *testing.T) {
	var d deque
	used := unsafe.Offsetof(d.tail) + unsafe.Sizeof(d.tail)
	if gap := unsafe.Sizeof(d) - used; gap < cacheline.Size {
		t.Fatalf("%d bytes between one deque's fields and the next's, want >= %d", gap, cacheline.Size)
	}
}
