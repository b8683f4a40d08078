// Package sched implements the SMPSs ready-task scheduling machinery
// (paper §III), rebuilt as a work-stealing scheduler.
//
// There are two shared lists — one for high-priority tasks and an
// injector for tasks that became ready at submission time — plus one
// *bounded* deque per worker holding tasks whose last input dependency
// was removed by that worker (overflow spills to the injector).  Workers
// look for work in the order: high-priority list, own deque (LIFO),
// injector (FIFO), then steal the oldest half of another worker's deque
// in creation order starting from the next one.
//
// Consuming the own deque in LIFO order walks the graph depth-first, so a
// worker tends to run the consumer of data it just produced while that
// data is still hot in its cache.  Stealing in FIFO order takes the tasks
// that have been queued longest — the ones whose inputs are most likely
// to have been evicted from the victim's cache already — which is the
// same policy as Cilk but with a locality motivation (paper §VII.D);
// taking half the deque per steal amortizes the victim's lock across a
// batch.  Idle workers park on per-worker one-token parkers: a push wakes
// exactly one sleeper instead of broadcasting to all of them.
package sched

import (
	"sync"

	"repro/internal/graph"
)

// queue is a mutex-guarded unbounded FIFO of task nodes, used for the
// shared high-priority and injector lists.
type queue struct {
	mu    sync.Mutex
	items []*graph.Node
	head  int
}

// pushBack appends a node at the back of the queue.
func (q *queue) pushBack(n *graph.Node) {
	q.mu.Lock()
	q.items = append(q.items, n)
	q.mu.Unlock()
}

// popFront removes and returns the oldest node, or nil.
func (q *queue) popFront() *graph.Node {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.items) {
		return nil
	}
	n := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	q.compact()
	return n
}

// compact reclaims the dead prefix once it dominates the backing array.
// Callers hold q.mu.
func (q *queue) compact() {
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
		return
	}
	if q.head > 64 && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// size returns the number of queued nodes.
func (q *queue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
