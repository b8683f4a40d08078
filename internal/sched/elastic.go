package sched

import (
	"sync/atomic"

	"repro/internal/graph"
)

// This file is the scheduling side of pool elasticity: the live-worker
// set the affinity layer consults, per-worker queue eviction for
// retiring workers, and the load probe the pool's scaling controller
// samples.  A fixed-size pool constructs none of it (nil ActiveSet, no
// Evict calls), so the static scheduler is untouched.

// ActiveSet tracks which worker identities currently have a live
// executor behind them.  The elastic pool flips bits as workers retire
// and unretire; the locality policy reads them to keep affinity hints
// off dead deques.  A nil *ActiveSet reports every worker active — the
// fixed-size pool's behavior with zero cost.
type ActiveSet struct {
	bits []atomic.Bool
}

// NewActiveSet creates a set over nslots worker identities, all active.
func NewActiveSet(nslots int) *ActiveSet {
	s := &ActiveSet{bits: make([]atomic.Bool, nslots)}
	for i := range s.bits {
		s.bits[i].Store(true)
	}
	return s
}

// Set marks worker w active or retired.
func (s *ActiveSet) Set(w int, active bool) {
	if s != nil && w >= 0 && w < len(s.bits) {
		s.bits[w].Store(active)
	}
}

// Active reports whether worker w has a live executor.  Out-of-range
// slots and a nil set report true (conservative: never redirect).
func (s *ActiveSet) Active(w int) bool {
	if s == nil || w < 0 || w >= len(s.bits) {
		return true
	}
	return s.bits[w].Load()
}

// Count returns the number of active workers in [lo, hi).
func (s *ActiveSet) Count(lo, hi int) int {
	n := 0
	for w := lo; w < hi && w < len(s.bits); w++ {
		if s.bits[w].Load() {
			n++
		}
	}
	return n
}

// Evict spills worker w's deque into the injector, preserving the FIFO
// order a thief would have seen, and returns the number of tasks moved.
// Called when worker w retires so its queued tasks reach workers that
// still poll, instead of waiting for a steal.
func (s *Locality) Evict(w int) int {
	if w < 0 || w >= len(s.deques) {
		return 0
	}
	nodes := s.deques[w].drainAll(nil)
	for _, n := range nodes {
		s.inject.pushBack(n)
	}
	return len(nodes)
}

// Evict on the central-queue policy is a no-op: there are no
// per-worker queues to strand tasks in.
func (s *GlobalFIFO) Evict(w int) int { return 0 }

// drainAll appends every queued node to dst oldest-first and empties
// the deque.
func (d *deque) drainAll(dst []*graph.Node) []*graph.Node {
	d.mu.Lock()
	for d.head != d.tail {
		dst = append(dst, d.buf[d.head&d.mask])
		d.buf[d.head&d.mask] = nil
		d.head++
	}
	d.mu.Unlock()
	return dst
}

// Evict spills worker w's per-client queues back to the shared
// injectors, so a retiring worker strands no tasks; returns the number
// of tasks moved.
func (m *TokenMux) Evict(w int) int {
	total := 0
	for _, c := range *m.clients.Load() {
		total += c.policy.Evict(w)
	}
	return total
}

// Load sums the in-flight gauges of every attached client — the queue
// depth the elastic pool's scaling controller samples.  Approximate
// under concurrency, exact at rest.
func (m *TokenMux) Load() int64 {
	var total int64
	for _, c := range *m.clients.Load() {
		total += c.queued.Load()
	}
	return total
}

// Nudge unparks one idle worker if any client has queued work.  A
// retiring worker calls it after evicting its deque — its own pending
// wake token (if a push targeted it in the retirement window) dies with
// it, so the nudge re-arms the wake protocol.
func (m *TokenMux) Nudge() {
	if m.active.Load() > 0 {
		m.unparkOne()
	}
}
