package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/cacheline"
	"repro/internal/chaos"
	"repro/internal/graph"
)

// This file is the multi-tenant dispatch layer: one shared set of worker
// threads serving many independent task graphs.  Each runtime context
// registers a Client — its own scheduling Policy plus in-flight
// accounting — with the pool's TokenMux, which multiplexes every
// client's ready tasks over the pool's workers.  Workers scan the
// clients round-robin from a per-worker cursor, so one context with a
// deep backlog cannot starve the rest, while within a context the
// policy's locality order (high list, own deque, injector, steal-half)
// is preserved unchanged.

// Client is one context's share of a TokenMux: its scheduling policy,
// its submitter's worker identity, and the count of tasks currently
// queued.  A Client belongs to exactly one context and is created by
// TokenMux.Attach.
type Client struct {
	policy Policy //smpss:writer=shared
	slot   int    //smpss:writer=shared

	_ cacheline.Pad

	// queued counts tasks pushed but not yet popped — the per-context
	// in-flight gauge.  Workers use it to skip empty clients without
	// touching the policy's locks, and a context's barrier helper uses
	// it to park instead of spinning on an empty queue.  Every push and
	// every pop writes it, from whichever thread: a line of its own.
	queued atomic.Int64 //smpss:writer=worker

	_ cacheline.Pad

	// waiting marks the client's submitter parked in a restricted Get
	// (helping only its own context).  Restricted waiters stay off the
	// mux's global idle stack — a push to context B must never spend its
	// only wakeup on context A's submitter, which would recheck A, find
	// nothing, and park again while B's task strands.  Every waking push
	// reads it; only the submitter's parking writes it.
	waiting atomic.Bool //smpss:writer=submitter

	_ cacheline.Pad
}

// Slot returns the worker identity of the client's submitter.
func (c *Client) Slot() int { return c.slot }

// Queued returns the client's in-flight task count (pushed, not yet
// popped).  Approximate under concurrency.
func (c *Client) Queued() int64 { return c.queued.Load() }

// Stats returns the client's policy counters — per-context by
// construction, so one tenant's scheduling activity never bleeds into
// another's snapshot.
func (c *Client) Stats() Stats { return c.policy.Stats() }

// HighPending reports whether the client's policy has high-priority
// work queued.  The runtime's successor chaining consults it so an
// inline chain never outruns a waiting high-priority task.
func (c *Client) HighPending() bool { return c.policy.HighPending() }

// muxCursor is one worker's round-robin position over the client list,
// padded so neighbouring workers' cursors do not false-share a line.
type muxCursor struct {
	v uint32
	_ [60]byte
}

// TokenMux dispatches ready tasks from many Clients to one shared set of
// workers under a per-worker one-token parking protocol.  A push hands
// exactly one token to one idle worker; a context's parked submitter is
// tracked on its Client (not the idle stack) and woken only by its own
// context's pushes and targeted Wakes.
type TokenMux struct {
	// clients is a copy-on-write snapshot so the worker scan never takes
	// a lock; cmu serializes Attach/Detach.
	clients atomic.Pointer[[]*Client]
	cmu     sync.Mutex
	cursor  []muxCursor
	// active counts clients with at least one queued task (maintained on
	// the queued gauge's 0↔1 crossings).  The wake-elision override
	// reads it: a lone self-push is safe to elide exactly while no other
	// tenant has queued work the releasing worker's round-robin scan
	// could serve first.
	active atomic.Int64

	// parker[w] holds at most one wake token for worker w.
	parker []chan struct{}

	mu   sync.Mutex
	idle []int // stack of unrestricted workers currently announced idle
	// inIdle[w] mirrors membership of the idle stack; readable lock-free
	// for the elided-wake invariant guard in Push.
	inIdle []atomic.Bool
	nidle  atomic.Int32

	closed         atomic.Bool
	parks, unparks atomic.Int64
}

// NewTokenMux creates a mux for nslots worker identities (submitter
// slots and dedicated workers combined).
func NewTokenMux(nslots int) *TokenMux {
	if nslots < 1 {
		nslots = 1
	}
	m := &TokenMux{
		cursor: make([]muxCursor, nslots),
		parker: make([]chan struct{}, nslots),
		inIdle: make([]atomic.Bool, nslots),
		idle:   make([]int, 0, nslots),
	}
	m.clients.Store(new([]*Client))
	for i := range m.parker {
		m.parker[i] = make(chan struct{}, 1)
	}
	return m
}

// Attach registers a context's policy; slot is its submitter's worker
// identity (used for targeted cancel-condition wakes).
func (m *TokenMux) Attach(p Policy, slot int) *Client {
	c := &Client{policy: p, slot: slot}
	m.cmu.Lock()
	old := *m.clients.Load()
	next := make([]*Client, len(old)+1)
	copy(next, old)
	next[len(old)] = c
	m.clients.Store(&next)
	m.cmu.Unlock()
	return c
}

// Detach removes a client.  The caller must have drained the client's
// queue (a closing context barriers first).
func (m *TokenMux) Detach(c *Client) {
	m.cmu.Lock()
	old := *m.clients.Load()
	next := make([]*Client, 0, len(old))
	for _, x := range old {
		if x != c {
			next = append(next, x)
		}
	}
	m.clients.Store(&next)
	m.cmu.Unlock()
}

// enqueue bumps the client's in-flight gauge, tracking the
// zero-crossing in the active-client count.
func (m *TokenMux) enqueue(c *Client) {
	if c.queued.Add(1) == 1 {
		m.active.Add(1)
	}
}

// dequeue is enqueue's inverse, called when a lookup pops a task.
func (m *TokenMux) dequeue(c *Client) {
	if c.queued.Add(-1) == 0 {
		m.active.Add(-1)
	}
}

// tryNext finds a task for worker self.  Restricted lookups poll only
// the given client; unrestricted lookups scan every client round-robin
// starting at the worker's cursor, which then advances past the served
// client so successive lookups rotate fairly across tenants.  With a
// single attached client the scan degenerates to exactly the
// single-runtime lookup.
func (m *TokenMux) tryNext(self int, only *Client) *graph.Node {
	if only != nil {
		if only.queued.Load() == 0 {
			return nil
		}
		if n := only.policy.TryNext(self); n != nil {
			m.dequeue(only)
			return n
		}
		return nil
	}
	cs := *m.clients.Load()
	if len(cs) == 0 {
		return nil
	}
	start := int(m.cursor[self].v) % len(cs)
	for i := 0; i < len(cs); i++ {
		c := cs[(start+i)%len(cs)]
		if c.queued.Load() == 0 {
			continue
		}
		if n := c.policy.TryNext(self); n != nil {
			m.dequeue(c)
			m.cursor[self].v = uint32((start + i + 1) % len(cs))
			return n
		}
	}
	return nil
}

// Push queues a ready task of client c; releasedBy is the worker whose
// completion made it ready, or graph.MainThread.  If the policy asks for
// a wake, one idle worker is unparked and the client's parked submitter
// (if any) is handed a token too — with zero dedicated workers the
// submitter is the only thread that can execute.
func (m *TokenMux) Push(c *Client, n *graph.Node, releasedBy int) {
	m.enqueue(c)
	// Read before the policy has the node: from then on another worker
	// may pop, run and complete it, and the runtime recycles its storage.
	hint := n.Affinity()
	wake := c.policy.Push(n, releasedBy)
	if !wake && m.active.Load() > 1 {
		// The policy elided the wake on the premise that the releasing
		// worker pops this task on its very next lookup.  That holds
		// only while this client is the only one with queued work: if
		// another tenant has tasks in flight, the worker's round-robin
		// scan may hand it that context's (arbitrarily long) task
		// first, leaving the lone successor stranded with every other
		// worker parked.  The active-client gauge makes the check
		// precise — a pool with many *attached* but idle tenants keeps
		// the single-runtime elision.  (If a second tenant's push races
		// this load, at most one of the two elides: the active counter
		// is a single atomic, so the later pusher observes both
		// clients active and wakes.)
		wake = true
	}
	if wake {
		// A task carrying an affinity hint wakes the hinted worker when
		// it is parked — the wake-to-data counterpart of the hinted
		// push.  If the hinted worker is not idle (or loses the race to
		// a concurrent unpark), fall back to the LIFO idle stack so the
		// push's wake is never swallowed.  chaos.DropWake deliberately
		// loses the targeted wake to prove the fallback really covers
		// every push.
		if hint < 0 || hint >= len(m.inIdle) ||
			!m.inIdle[hint].Load() || chaos.DropWake(hint) || !m.wakeIdle(hint) {
			m.unparkOne()
		}
		if c.waiting.Load() {
			// Targeted token for the client's parked submitter.  Not
			// counted as an unpark: the one-slot buffer may drop it as a
			// duplicate of an earlier completion wake, and only idle-stack
			// pops keep Parks/Unparks comparable.
			m.token(c.slot)
		}
		return
	}
	// Elided wake (sole tenant): the contract says the releasing worker
	// is awake and pops the task next.  Guard the invariant anyway — if
	// that worker is in fact parked (a push from a goroutine that is not
	// the owner, violating the contract), wake it rather than strand the
	// task.  A submitter-slot push never reaches here: every policy
	// requests a wake for helper-slot releases.
	if releasedBy >= 0 && releasedBy < len(m.inIdle) && m.inIdle[releasedBy].Load() {
		m.Wake(releasedBy)
	}
}

// unparkOne hands a wake token to one idle unrestricted worker.
func (m *TokenMux) unparkOne() {
	if m.nidle.Load() == 0 {
		return
	}
	m.mu.Lock()
	if len(m.idle) == 0 {
		m.mu.Unlock()
		return
	}
	w := m.idle[len(m.idle)-1]
	m.idle = m.idle[:len(m.idle)-1]
	m.inIdle[w].Store(false)
	m.nidle.Add(-1)
	m.mu.Unlock()
	m.token(w)
	m.unparks.Add(1)
}

// token delivers worker w's wake token; the buffer of one absorbs
// duplicates.
func (m *TokenMux) token(w int) {
	select {
	case m.parker[w] <- struct{}{}:
	default:
	}
}

// announce puts worker self on the idle stack (idempotent).
func (m *TokenMux) announce(self int) {
	m.mu.Lock()
	if !m.inIdle[self].Load() {
		m.idle = append(m.idle, self)
		m.inIdle[self].Store(true)
		m.nidle.Add(1)
	}
	m.mu.Unlock()
}

// retire removes self from the idle stack after it found work (or is
// giving up) on its own.  If a concurrent push already popped self to
// target a wakeup at it, the wakeup is forwarded to another idle worker
// so no push's wake is silently swallowed.
func (m *TokenMux) retire(self int) {
	m.mu.Lock()
	found := false
	for i, w := range m.idle {
		if w == self {
			m.idle = append(m.idle[:i], m.idle[i+1:]...)
			m.inIdle[self].Store(false)
			m.nidle.Add(-1)
			found = true
			break
		}
	}
	next := -1
	if !found && len(m.idle) > 0 {
		next = m.idle[len(m.idle)-1]
		m.idle = m.idle[:len(m.idle)-1]
		m.inIdle[next].Store(false)
		m.nidle.Add(-1)
	}
	m.mu.Unlock()
	if next >= 0 {
		m.token(next)
		m.unparks.Add(1)
	}
}

// leave undoes the idle announcement appropriate to the Get mode.
func (m *TokenMux) leave(self int, only *Client) {
	if only != nil {
		only.waiting.Store(false)
		return
	}
	m.retire(self)
}

// Get returns the next task for worker self, parking until one arrives;
// nil when cancel() reports true or after Close.  When only is non-nil
// the worker takes tasks exclusively from that client — the restricted
// mode a context's submitter uses while it blocks, so helping out never
// executes another tenant's work (and a barrier in one context never
// waits on another's task bodies).  The parking protocol is announce →
// recheck → park: a push after the recheck is guaranteed to observe the
// announcement (the idle stack for unrestricted workers, the client's
// waiting flag for a restricted submitter) and deliver a token, so no
// wakeup is lost.
func (m *TokenMux) Get(self int, only *Client, cancel func() bool) *graph.Node {
	if self < 0 || self >= len(m.parker) {
		self = 0
	}
	ch := m.parker[self]
	for {
		if n := m.tryNext(self, only); n != nil {
			return n
		}
		// Clear any stale token from an earlier targeted wakeup we never
		// consumed, so it cannot cause an immediate spurious unpark.
		select {
		case <-ch:
		default:
		}
		if only != nil {
			only.waiting.Store(true)
		} else {
			m.announce(self)
		}
		if n := m.tryNext(self, only); n != nil {
			m.leave(self, only)
			return n
		}
		if cancel != nil && cancel() {
			m.leave(self, only)
			return nil
		}
		if m.closed.Load() {
			m.leave(self, only)
			// Drain whatever remains before giving up.
			return m.tryNext(self, only)
		}
		if only == nil {
			// Parks (and Unparks) describe the idle-stack protocol only:
			// restricted submitters park outside it and their targeted
			// tokens are deliberately uncounted, so the two gauges stay
			// comparable.
			m.parks.Add(1)
		}
		<-ch
		if only != nil {
			only.waiting.Store(false)
		}
		if m.closed.Load() {
			return m.tryNext(self, only)
		}
		// Re-evaluate the cancel condition before looking for work: a
		// targeted Wake usually means the condition the caller blocks on
		// (barrier, graph limit) just changed, and going through tryNext
		// first would make the waking submitter take a task it no longer
		// needs to help with.
		if cancel != nil && cancel() {
			return nil
		}
	}
}

// wakeIdle pops worker slot off the idle stack and delivers its token,
// reporting whether the worker was actually idle.  The affinity wake
// uses the report to fall back to unparkOne when the hinted worker was
// concurrently claimed — a push's wake must never be swallowed by a
// token buffered at a busy worker.
func (m *TokenMux) wakeIdle(slot int) bool {
	m.mu.Lock()
	idle := m.inIdle[slot].Load()
	if idle {
		for i, id := range m.idle {
			if id == slot {
				m.idle = append(m.idle[:i], m.idle[i+1:]...)
				break
			}
		}
		m.inIdle[slot].Store(false)
		m.nidle.Add(-1)
	}
	m.mu.Unlock()
	if idle {
		m.token(slot)
		m.unparks.Add(1)
	}
	return idle
}

// Wake is a targeted nudge so worker slot re-evaluates its cancel
// condition.  An unrestricted idle worker is popped off the idle stack;
// otherwise the token is delivered directly — that is how a context's
// parked submitter (which never joins the idle stack) is woken by its
// completions and its tracker's reclaim hook, so that case takes no
// lock.  A worker that announces itself after the look at inIdle rechecks
// its condition before it parks, and finds the token if it does park.
func (m *TokenMux) Wake(slot int) {
	if slot < 0 || slot >= len(m.parker) {
		return
	}
	if !m.inIdle[slot].Load() || !m.wakeIdle(slot) {
		m.token(slot)
	}
}

// Kick wakes every parked worker — idle stack and restricted submitters
// alike — to re-evaluate its cancel condition.
func (m *TokenMux) Kick() {
	m.mu.Lock()
	woken := append([]int(nil), m.idle...)
	m.idle = m.idle[:0]
	for _, w := range woken {
		m.inIdle[w].Store(false)
	}
	m.nidle.Store(0)
	m.mu.Unlock()
	for _, w := range woken {
		m.token(w)
		m.unparks.Add(1)
	}
	for _, c := range *m.clients.Load() {
		if c.waiting.Load() {
			m.token(c.slot)
		}
	}
}

// Close wakes everyone; subsequent Gets return nil once drained.
func (m *TokenMux) Close() {
	m.closed.Store(true)
	m.Kick()
}

// Stats returns the parking counters.  These are pool-wide — parking
// is shared machinery — so they are reported here rather than on any
// client; policy counters live on the clients.
func (m *TokenMux) Stats() Stats {
	return Stats{Parks: m.parks.Load(), Unparks: m.unparks.Load()}
}
