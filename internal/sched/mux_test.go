package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestMuxRoundRobinAcrossClients pins fair dispatch: a worker draining
// two clients' injectors alternates between them instead of emptying
// one tenant's backlog first.
func TestMuxRoundRobinAcrossClients(t *testing.T) {
	m := NewTokenMux(2)
	a := m.Attach(NewLocalityShared(2, 1), 0)
	b := m.Attach(NewLocalityShared(2, 1), 0)
	for i := int64(1); i <= 3; i++ {
		m.Push(a, mkNode(i, false), graph.MainThread)
		m.Push(b, mkNode(100+i, false), graph.MainThread)
	}
	var order []int64
	for i := 0; i < 6; i++ {
		n := m.tryNext(1, nil)
		if n == nil {
			t.Fatalf("lookup %d found nothing with %d+%d queued", i, a.Queued(), b.Queued())
		}
		order = append(order, n.ID)
	}
	// Alternation: consecutive pops never come from the same client.
	for i := 1; i < len(order); i++ {
		same := (order[i] < 100) == (order[i-1] < 100)
		if same {
			t.Fatalf("pops %v did not rotate across clients", order)
		}
	}
	if a.Queued() != 0 || b.Queued() != 0 {
		t.Fatalf("queued gauges not drained: a=%d b=%d", a.Queued(), b.Queued())
	}
}

// TestMuxRestrictedGetIgnoresOtherClients pins barrier isolation at the
// sched layer: a restricted Get serves only its own client and parks
// through other tenants' pushes, waking for its own.
func TestMuxRestrictedGetIgnoresOtherClients(t *testing.T) {
	m := NewTokenMux(3)
	a := m.Attach(NewLocalityShared(3, 2), 0)
	b := m.Attach(NewLocalityShared(3, 2), 1)
	m.Push(b, mkNode(200, false), graph.MainThread)

	got := make(chan *graph.Node, 1)
	go func() { got <- m.Get(0, a, nil) }()
	select {
	case n := <-got:
		t.Fatalf("restricted Get returned another client's task %d", n.ID)
	case <-time.After(20 * time.Millisecond):
	}
	m.Push(a, mkNode(1, false), graph.MainThread)
	select {
	case n := <-got:
		if n.ID != 1 {
			t.Fatalf("restricted Get = %d, want 1", n.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("restricted Get did not wake for its own client's push")
	}
	// The other client's task is still there for an unrestricted worker.
	if n := m.tryNext(2, nil); n == nil || n.ID != 200 {
		t.Fatalf("client b's task lost: %v", n)
	}
}

// TestMuxRestrictedWakeNotStolenByOtherWaiter reproduces the wake-loss
// hazard the Client.waiting design avoids: with client a's submitter
// parked restricted, a push to client b must still reach an
// unrestricted worker (the restricted waiter must not swallow b's only
// wakeup).
func TestMuxRestrictedWakeNotStolenByOtherWaiter(t *testing.T) {
	m := NewTokenMux(3)
	a := m.Attach(NewLocalityShared(3, 2), 0)
	b := m.Attach(NewLocalityShared(3, 2), 1)

	restricted := make(chan *graph.Node, 1)
	var stop atomic.Bool
	go func() { restricted <- m.Get(0, a, stop.Load) }()
	worker := make(chan *graph.Node, 1)
	go func() { worker <- m.Get(2, nil, nil) }()
	time.Sleep(20 * time.Millisecond) // let both park

	m.Push(b, mkNode(7, false), graph.MainThread)
	select {
	case n := <-worker:
		if n.ID != 7 {
			t.Fatalf("worker got %d, want 7", n.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("push to client b never woke the unrestricted worker")
	}
	stop.Store(true)
	m.Kick()
	if n := <-restricted; n != nil {
		t.Fatalf("cancelled restricted Get = %v, want nil", n)
	}
}

// TestMuxDetachStopsDispatch checks a detached client's policy leaves
// the scan and the remaining client keeps working.
func TestMuxDetachStopsDispatch(t *testing.T) {
	m := NewTokenMux(2)
	a := m.Attach(NewLocalityShared(2, 1), 0)
	b := m.Attach(NewLocalityShared(2, 1), 0)
	m.Push(a, mkNode(1, false), graph.MainThread)
	if n := m.tryNext(1, nil); n == nil || n.ID != 1 {
		t.Fatalf("pre-detach lookup = %v", n)
	}
	m.Detach(a)
	m.Push(b, mkNode(2, false), graph.MainThread)
	if n := m.tryNext(1, nil); n == nil || n.ID != 2 {
		t.Fatalf("post-detach lookup = %v, want client b's task", n)
	}
}

// TestMuxConcurrentClientsStress drives two producer/consumer client
// pairs plus attach/detach churn of a third; under -race this is the
// mux's data-race canary.
func TestMuxConcurrentClientsStress(t *testing.T) {
	const (
		workers = 4
		slots   = 2 + workers
		total   = 20000
	)
	m := NewTokenMux(slots)
	a := m.Attach(NewLocalityShared(slots, 2), 0)
	b := m.Attach(NewLocalityShared(slots, 2), 1)

	var consumed atomic.Int64
	var wg sync.WaitGroup
	for w := 2; w < slots; w++ {
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
	var pwg sync.WaitGroup
	for i, c := range []*Client{a, b} {
		pwg.Add(1)
		go func(slot int, c *Client) {
			defer pwg.Done()
			for i := 0; i < total/2; i++ {
				m.Push(c, mkNode(int64(i), i%101 == 0), graph.MainThread)
			}
		}(i, c)
	}
	// Churn a third client through attach/detach while the others run.
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		for i := 0; i < 50; i++ {
			c := m.Attach(NewLocalityShared(slots, 2), 1)
			m.Push(c, mkNode(int64(1000+i), false), graph.MainThread)
			for {
				if n := m.tryNext(1, c); n != nil {
					consumed.Add(1)
					break
				}
				if c.Queued() == 0 {
					break // an unrestricted worker took it (and counted it)
				}
				time.Sleep(time.Microsecond)
			}
			m.Detach(c)
		}
	}()
	pwg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for consumed.Load() < total+50 {
		if time.Now().After(deadline) {
			t.Fatalf("stress stalled at %d of %d", consumed.Load(), total+50)
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
	wg.Wait()
	if got := consumed.Load(); got != total+50 {
		t.Fatalf("consumed %d, want %d", got, total+50)
	}
}

// TestSharedHelperMayTakeLastTask pins the multi-tenant politeness
// rule: on a private runtime the main thread leaves a dedicated
// worker's last queued task alone (it is about to be popped), but on a
// shared pool the owner may be busy with another tenant for
// arbitrarily long, so a context's submitter may take its own graph's
// final task — a barrier must not wait out a neighbour's task body.
func TestSharedHelperMayTakeLastTask(t *testing.T) {
	private := NewLocality(3)
	private.Push(mkNode(1, false), 2)
	if n := private.TryNext(0); n != nil {
		t.Fatalf("private main thread stole a worker's last task: %d", n.ID)
	}
	shared := NewLocalityShared(4, 2)
	shared.Push(mkNode(1, false), 3)
	if n := shared.TryNext(0); n == nil || n.ID != 1 {
		t.Fatalf("shared-pool submitter must take the last task, got %v", n)
	}
	// Still one task per steal: a two-deep deque yields exactly one.
	shared.Push(mkNode(2, false), 3)
	shared.Push(mkNode(3, false), 3)
	if n := shared.TryNext(1); n == nil || n.ID != 2 {
		t.Fatalf("helper steal must be FIFO single-task, got %v", n)
	}
	if got := shared.Stats().Steals; got != 2 {
		t.Fatalf("steals = %d, want 2 single-task steals", got)
	}
	// The victim keeps its newest task for its own LIFO pop.
	if n := shared.TryNext(3); n == nil || n.ID != 3 {
		t.Fatalf("victim's remaining task = %v, want 3", n)
	}
}

// TestRestrictedGetReachesBusyWorkersDeque reproduces the barrier-stall
// hazard at the mux level: context A's lone ready task sits on a
// dedicated worker's deque (the worker is occupied elsewhere), and A's
// restricted submitter must still be able to take it.
func TestRestrictedGetReachesBusyWorkersDeque(t *testing.T) {
	// A genuinely shared pool: two submitter slots (0, 1), one dedicated
	// worker (2).  helpers == 1 would be a private runtime, where the
	// polite-thief rule stays because there is no other tenant to get
	// stuck behind.
	m := NewTokenMux(3)
	a := m.Attach(NewLocalityShared(3, 2), 0)
	// Worker 2 released A's successor onto its own deque mid-task, then
	// "got stuck" serving another tenant (never calls Get again here).
	m.Push(a, mkNode(9, false), 2)
	done := make(chan *graph.Node, 1)
	go func() { done <- m.Get(0, a, nil) }()
	select {
	case n := <-done:
		if n == nil || n.ID != 9 {
			t.Fatalf("restricted Get = %v, want task 9", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("restricted submitter could not reach its own task on a busy worker's deque")
	}
}

// stickyPolicy is a test double whose queued tasks can never be popped
// — the mux-level model of a tenant whose work is perpetually "being
// handled elsewhere".  It keeps the client's queued gauge (and so the
// mux's active-client count) pinned above zero.
type stickyPolicy struct{ n atomic.Int64 }

func (p *stickyPolicy) Push(node *graph.Node, by int) bool { p.n.Add(1); return true }
func (p *stickyPolicy) TryNext(self int) *graph.Node       { return nil }
func (p *stickyPolicy) Len() int                           { return int(p.n.Load()) }
func (p *stickyPolicy) Stats() Stats                       { return Stats{} }
func (p *stickyPolicy) HighPending() bool                  { return false }

// TestMultiTenantSelfPushWakes pins the elision boundary: a lone
// self-push on a dedicated worker's deque skips the wake only while its
// client is the only one with queued work.  With a second tenant
// *active* the releasing worker's next round-robin lookup may serve
// that tenant's (arbitrarily long) task first, so the push must wake a
// parked worker to cover the successor.
func TestMultiTenantSelfPushWakes(t *testing.T) {
	m := NewTokenMux(4)
	a := m.Attach(NewLocalityShared(4, 2), 0)
	b := m.Attach(&stickyPolicy{}, 1)
	// Tenant B has queued work no lookup can claim, so the pool stays
	// genuinely multi-active while worker 3 parks.
	m.Push(b, mkNode(100, false), graph.MainThread)

	got := make(chan *graph.Node, 1)
	go func() { got <- m.Get(3, nil, nil) }()
	for m.Stats().Parks == 0 {
		time.Sleep(time.Millisecond) // let worker 3 park
	}

	// Dedicated worker 2 releases a lone successor onto its own deque —
	// the single-tenant elision case — while "stuck" elsewhere.
	m.Push(a, mkNode(5, false), 2)
	select {
	case n := <-got:
		if n == nil || n.ID != 5 {
			t.Fatalf("woken worker got %v, want task 5", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("multi-active self-push elided its wake; successor stranded")
	}
	m.Close()
}

// TestIdleTenantKeepsWakeElision is the other side of the boundary:
// attaching a second tenant that has no work in flight must not cost
// the first tenant its lone-self-push wake elision (the PR that
// introduced the mux disabled it for any >1-client pool).  The parked
// worker must stay parked — the releasing worker pops the successor
// itself on its next lookup.
func TestIdleTenantKeepsWakeElision(t *testing.T) {
	m := NewTokenMux(4)
	a := m.Attach(NewLocalityShared(4, 2), 0)
	m.Attach(NewLocalityShared(4, 2), 1) // attached but idle

	got := make(chan *graph.Node, 1)
	go func() { got <- m.Get(3, nil, nil) }()
	for m.Stats().Parks == 0 {
		time.Sleep(time.Millisecond) // let worker 3 park
	}

	// Lone self-push by dedicated worker 2: with the only other tenant
	// idle, the single-runtime elision applies.
	m.Push(a, mkNode(7, false), 2)
	time.Sleep(50 * time.Millisecond)
	select {
	case n := <-got:
		t.Fatalf("idle-tenant pool woke a thief for a lone self-push (task %d)", n.ID)
	default:
	}
	if up := m.Stats().Unparks; up != 0 {
		t.Fatalf("lone self-push unparked %d workers with the other tenant idle", up)
	}
	// Cleanup: Close wakes worker 3, which drains the elided task.
	m.Close()
	if n := <-got; n == nil || n.ID != 7 {
		t.Fatalf("drain after Close = %v, want task 7", n)
	}
}

// TestWakeOffIdleStackTakesNoLock: a submitter slot is never on the idle
// stack, so its completions' Wake must deliver the token without the
// stack's lock — here held by the test for the duration.  A slot that is
// on the stack still goes through the lock and comes off the stack.
func TestWakeOffIdleStackTakesNoLock(t *testing.T) {
	m := NewTokenMux(2)
	m.mu.Lock()
	m.Wake(0) // would deadlock on m.mu
	m.mu.Unlock()
	select {
	case <-m.parker[0]:
	default:
		t.Fatalf("Wake of a slot off the idle stack delivered no token")
	}

	m.announce(1)
	m.Wake(1)
	select {
	case <-m.parker[1]:
	default:
		t.Fatalf("Wake of an idle worker delivered no token")
	}
	if m.inIdle[1].Load() || m.nidle.Load() != 0 || len(m.idle) != 0 {
		t.Fatalf("woken worker still on the idle stack: inIdle %v, nidle %d, stack %v",
			m.inIdle[1].Load(), m.nidle.Load(), m.idle)
	}
}
