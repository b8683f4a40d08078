package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
)

func mkNode(id int64, prio bool) *graph.Node {
	return &graph.Node{ID: id, Priority: prio}
}

func TestQueueFIFO(t *testing.T) {
	var q queue
	for i := int64(1); i <= 3; i++ {
		q.pushBack(mkNode(i, false))
	}
	for want := int64(1); want <= 3; want++ {
		if n := q.popFront(); n.ID != want {
			t.Fatalf("popFront = %d, want %d", n.ID, want)
		}
	}
	if q.popFront() != nil {
		t.Fatalf("empty queue must return nil")
	}
}

func TestQueueCompaction(t *testing.T) {
	var q queue
	const n = 1000
	for i := int64(0); i < n; i++ {
		q.pushBack(mkNode(i, false))
	}
	for i := int64(0); i < n; i++ {
		got := q.popFront()
		if got == nil || got.ID != i {
			t.Fatalf("popFront #%d = %v", i, got)
		}
	}
	if q.size() != 0 {
		t.Fatalf("size = %d, want 0", q.size())
	}
	// Interleaved push/pop keeps working after compaction.
	q.pushBack(mkNode(7, false))
	if got := q.popFront(); got.ID != 7 {
		t.Fatalf("after compaction popFront = %v", got)
	}
}

func TestQueueOrderProperty(t *testing.T) {
	// Property: popping everything from the front returns push order.
	f := func(raw []uint8) bool {
		var q queue
		for i := range raw {
			q.pushBack(mkNode(int64(i), false))
		}
		for i := range raw {
			if q.popFront().ID != int64(i) {
				return false
			}
		}
		return q.size() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityHighPriorityFirst(t *testing.T) {
	s := NewLocality(2)
	s.Push(mkNode(1, false), graph.MainThread)
	s.Push(mkNode(2, true), graph.MainThread)
	if n := s.TryNext(0); n.ID != 2 {
		t.Fatalf("high priority must be scheduled first, got %d", n.ID)
	}
	if n := s.TryNext(0); n.ID != 1 {
		t.Fatalf("then the main list, got %d", n.ID)
	}
	st := s.Stats()
	if st.PushHigh != 1 || st.PushMain != 1 || st.PopHigh != 1 || st.PopMain != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalityOwnListLIFO(t *testing.T) {
	s := NewLocality(2)
	// Worker 1 releases two tasks; it must consume them in LIFO order.
	s.Push(mkNode(1, false), 1)
	s.Push(mkNode(2, false), 1)
	if n := s.TryNext(1); n.ID != 2 {
		t.Fatalf("own list must be LIFO, got %d", n.ID)
	}
	if n := s.TryNext(1); n.ID != 1 {
		t.Fatalf("own list second pop = %d, want 1", n.ID)
	}
	if st := s.Stats(); st.PushOwn != 2 || st.PopOwn != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLocalityStealFIFO(t *testing.T) {
	s := NewLocality(2)
	// Worker 1's list holds 1,2 (oldest first).  Worker 0 must steal the
	// oldest (FIFO) to spare the victim's cache.
	s.Push(mkNode(1, false), 1)
	s.Push(mkNode(2, false), 1)
	if n := s.TryNext(0); n.ID != 1 {
		t.Fatalf("steal must be FIFO, got %d", n.ID)
	}
	if st := s.Stats(); st.Steals != 1 {
		t.Fatalf("stats = %+v, want 1 steal", st)
	}
}

func TestLocalityStealOrderStartsAtNextWorker(t *testing.T) {
	s := NewLocality(4)
	// Tasks on workers 2 and 3.  Worker 1 must check 2 before 3.
	s.Push(mkNode(30, false), 3)
	s.Push(mkNode(20, false), 2)
	if n := s.TryNext(1); n.ID != 20 {
		t.Fatalf("worker 1 must steal from worker 2 first, got %d", n.ID)
	}
	// Now only worker 3 has work; worker 1 wraps around past 2.
	if n := s.TryNext(1); n.ID != 30 {
		t.Fatalf("worker 1 must wrap to worker 3, got %d", n.ID)
	}
}

func TestLocalityOwnBeforeMainBeforeSteal(t *testing.T) {
	s := NewLocality(2)
	s.Push(mkNode(1, false), graph.MainThread) // injector
	s.Push(mkNode(2, false), 1)                // own deque of worker 1
	s.Push(mkNode(3, false), 0)                // worker 0's deque
	if n := s.TryNext(1); n.ID != 2 {
		t.Fatalf("own deque must beat the injector, got %d", n.ID)
	}
	if n := s.TryNext(1); n.ID != 1 {
		t.Fatalf("injector must beat stealing, got %d", n.ID)
	}
	if n := s.TryNext(1); n.ID != 3 {
		t.Fatalf("finally steal, got %d", n.ID)
	}
}

func TestLocalityMainIsPoliteThief(t *testing.T) {
	s := NewLocality(3)
	// Worker 1 holds a single queued task.  Only a worker pushes to its
	// own deque, so worker 1 is awake and about to pop it: the main
	// thread (identity 0) must leave it alone...
	s.Push(mkNode(1, false), 1)
	if n := s.TryNext(0); n != nil {
		t.Fatalf("main thread stole a worker's last task: %d", n.ID)
	}
	// ...while a dedicated worker may take it, and the main thread may
	// steal once the victim holds two or more.
	if n := s.TryNext(2); n == nil || n.ID != 1 {
		t.Fatalf("worker 2 must steal the singleton, got %v", n)
	}
	s.Push(mkNode(2, false), 1)
	s.Push(mkNode(3, false), 1)
	if n := s.TryNext(0); n == nil || n.ID != 2 {
		t.Fatalf("main thread must steal from a 2-deep deque, got %v", n)
	}
}

func TestLocalityMainThreadReleaseGoesToMainList(t *testing.T) {
	s := NewLocality(2)
	s.Push(mkNode(1, false), graph.MainThread)
	if st := s.Stats(); st.PushMain != 1 || st.PushOwn != 0 {
		t.Fatalf("stats = %+v, want main push", st)
	}
}

func TestLocalityOutOfRangeWorkerFallsBackToMain(t *testing.T) {
	s := NewLocality(2)
	s.Push(mkNode(1, false), 99)
	if st := s.Stats(); st.PushMain != 1 {
		t.Fatalf("out-of-range releasedBy must use main list: %+v", st)
	}
	if n := s.TryNext(0); n == nil || n.ID != 1 {
		t.Fatalf("task lost")
	}
}

func TestLocalityLen(t *testing.T) {
	s := NewLocality(2)
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	s.Push(mkNode(1, true), graph.MainThread)
	s.Push(mkNode(2, false), graph.MainThread)
	s.Push(mkNode(3, false), 1)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestGlobalFIFOOrder(t *testing.T) {
	s := NewGlobalFIFO()
	s.Push(mkNode(1, false), 0)
	s.Push(mkNode(2, false), 1)
	s.Push(mkNode(3, true), graph.MainThread)
	if n := s.TryNext(0); n.ID != 3 {
		t.Fatalf("high priority first, got %d", n.ID)
	}
	if n := s.TryNext(1); n.ID != 1 {
		t.Fatalf("then FIFO, got %d", n.ID)
	}
	if n := s.TryNext(0); n.ID != 2 {
		t.Fatalf("then FIFO, got %d", n.ID)
	}
	if s.TryNext(0) != nil {
		t.Fatalf("empty must return nil")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
}

func TestSchedulerGetBlocksUntilPush(t *testing.T) {
	m := NewTokenMux(2)
	c := m.Attach(NewLocality(2), 0)
	got := make(chan *graph.Node, 1)
	go func() { got <- m.Get(0, nil, nil) }()
	select {
	case n := <-got:
		t.Fatalf("Get returned %v before any push", n)
	case <-time.After(20 * time.Millisecond):
	}
	m.Push(c, mkNode(42, false), graph.MainThread)
	select {
	case n := <-got:
		if n.ID != 42 {
			t.Fatalf("Get = %d, want 42", n.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Get did not wake after push")
	}
}

func TestSchedulerGetCancel(t *testing.T) {
	m := NewTokenMux(1)
	m.Attach(NewLocality(1), 0)
	var stop atomic.Bool
	got := make(chan *graph.Node, 1)
	go func() { got <- m.Get(0, nil, stop.Load) }()
	time.Sleep(10 * time.Millisecond)
	stop.Store(true)
	m.Kick()
	select {
	case n := <-got:
		if n != nil {
			t.Fatalf("cancelled Get = %v, want nil", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("cancelled Get did not return")
	}
}

func TestSchedulerCloseDrains(t *testing.T) {
	m := NewTokenMux(2)
	c := m.Attach(NewGlobalFIFO(), 0)
	m.Push(c, mkNode(1, false), graph.MainThread)
	m.Close()
	if n := m.Get(0, nil, nil); n == nil || n.ID != 1 {
		t.Fatalf("Get after Close must drain remaining tasks, got %v", n)
	}
	if n := m.Get(0, nil, nil); n != nil {
		t.Fatalf("Get on closed empty scheduler = %v, want nil", n)
	}
}

func TestSchedulerConcurrentProducersConsumers(t *testing.T) {
	m := NewTokenMux(4)
	c := m.Attach(NewLocality(4), 0)
	const total = 4000
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
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
	// The producer is not a worker goroutine, so it may only use the
	// releasedBy identities whose pushes guarantee a wakeup: MainThread
	// and the main-thread helper identity 0 (a releasedBy >= 1 push is,
	// by the runtime's single-submitter invariant, made by that worker
	// itself, which then pops the task without needing a wake).
	for i := 0; i < total; i++ {
		m.Push(c, mkNode(int64(i), i%7 == 0), i%2-1)
	}
	for consumed.Load() < total {
		time.Sleep(time.Millisecond)
	}
	m.Close()
	wg.Wait()
	if consumed.Load() != total {
		t.Fatalf("consumed %d, want %d", consumed.Load(), total)
	}
	st := c.Stats()
	if st.PushHigh == 0 || st.PushOwn == 0 || st.PushMain == 0 {
		t.Fatalf("expected a mix of destinations: %+v", st)
	}
}

// TestAffinityPushPlacement pins the hint-honoring rules: a hint to a
// dedicated worker lands on that worker's deque; a hint to a helper
// slot falls back to the injector while dedicated workers exist (the
// task would otherwise cost a forced steal); and on a pool with no
// dedicated workers (a Workers: 1 runtime) the helper hint is honored —
// the submitter is the only executor.
func TestAffinityPushPlacement(t *testing.T) {
	s := NewLocalityShared(4, 1) // slot 0: helper, slots 1-3: dedicated
	hinted := mkNode(1, false)
	hinted.SetAffinity(2)
	s.Push(hinted, graph.MainThread)
	if st := s.Stats(); st.AffinityPushes != 1 || st.PushMain != 0 {
		t.Fatalf("dedicated-worker hint not honored: %+v", st)
	}
	if n := s.deques[2].popBack(); n == nil || n.ID != 1 {
		t.Fatalf("hinted task not on deque 2: %v", n)
	}

	toHelper := mkNode(2, false)
	toHelper.SetAffinity(0)
	s.Push(toHelper, graph.MainThread)
	if st := s.Stats(); st.AffinityPushes != 1 || st.PushMain != 1 {
		t.Fatalf("helper-slot hint must fall back to the injector: %+v", st)
	}

	solo := NewLocality(1) // no dedicated workers at all
	n3 := mkNode(3, false)
	n3.SetAffinity(0)
	solo.Push(n3, graph.MainThread)
	if st := solo.Stats(); st.AffinityPushes != 1 {
		t.Fatalf("solo-executor pool must honor the helper hint: %+v", st)
	}
}

// TestHighPriorityPushNeverStranded: a lookup skips the high-priority
// list while highLen reads zero, so a push must count the task before
// the mux wakes anybody.  Workers that are parked, about to park, or in
// the middle of a scan when the push lands must all end up running the
// task: every round waits for its own high-priority task, and a stranded
// one fails the round instead of being picked up by the next push.
func TestHighPriorityPushNeverStranded(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	policies := map[string]func() Policy{
		"locality": func() Policy { return NewLocality(4) },
		"fifo":     func() Policy { return NewGlobalFIFO() },
	}
	for name, policy := range policies {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				const workers = 3
				m := NewTokenMux(workers + 1)
				c := m.Attach(policy(), 0)
				var high, low atomic.Int64
				var wg sync.WaitGroup
				for w := 1; w <= workers; w++ {
					wg.Add(1)
					go func(self int) {
						defer wg.Done()
						for n := m.Get(self, nil, nil); n != nil; n = m.Get(self, nil, nil) {
							if n.Priority {
								high.Add(1)
							} else {
								low.Add(1)
							}
						}
					}(w)
				}
				for i := 1; i <= rounds; i++ {
					// Thirds: workers parked, workers scanning for a plain
					// task pushed just before, workers wherever they are.
					switch i % 3 {
					case 0:
						for m.nidle.Load() < workers {
							runtime.Gosched()
						}
					case 1:
						m.Push(c, mkNode(int64(-i), false), graph.MainThread)
					}
					m.Push(c, mkNode(int64(i), true), graph.MainThread)
					deadline := time.Now().Add(5 * time.Second)
					for high.Load() < int64(i) {
						if time.Now().After(deadline) {
							t.Fatalf("round %d: high-priority task stranded (%d queued, %d workers idle)",
								i, c.policy.Len(), m.nidle.Load())
						}
						runtime.Gosched()
					}
				}
				m.Close()
				wg.Wait()
				if want := int64((rounds + 2) / 3); low.Load() != want {
					t.Fatalf("plain tasks run = %d, want %d", low.Load(), want)
				}
				if st := c.Stats(); st.PushHigh != int64(rounds) || st.PopHigh != int64(rounds) {
					t.Fatalf("PushHigh %d PopHigh %d, want %d each", st.PushHigh, st.PopHigh, rounds)
				}
			})
		}
	}
}
