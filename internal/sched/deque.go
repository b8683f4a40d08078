package sched

import (
	"math/bits"
	"sync"

	"repro/internal/cacheline"
	"repro/internal/graph"
)

// defaultDequeCap bounds each worker's ready deque.  Overflow spills to
// the shared injector queue, so per-worker memory stays constant no
// matter how fast one worker's completions release new tasks.  SMPSs
// graphs are throttled to a few thousand open tasks (core.Config
// .GraphLimit), so 256 slots per worker keeps spills rare while bounding
// the LIFO working set to tasks whose inputs are plausibly still in
// cache.
const defaultDequeCap = 256

// deque is a bounded ring-buffer deque of task nodes, one per worker.
// The owner pushes and pops at the back (LIFO, depth-first descent of
// the graph while produced data is hot); thieves grab batches from the
// front (FIFO, the tasks whose inputs have been cold the longest —
// paper §VII.D).
//
// A plain mutex guards each deque: SMPSs tasks run for hundreds of
// microseconds (paper §I), and the mutex is uncontended except during
// steals, so a lock-free Chase–Lev structure would buy nothing.  What
// matters for scale is that the mutex is *per worker*: pushes and pops
// by distinct workers never serialize against each other the way the
// old global condvar-guarded lists did.  The same goes for the memory:
// deques sit in a slice, and the padding puts a full line between one
// worker's fields and the next's (without it a helping submitter's pops
// on deque 0 and the worker's on deque 1 write one line).
type deque struct {
	mu   sync.Mutex
	buf  []*graph.Node
	mask int
	head int // index of the oldest element
	tail int // index one past the newest element
	_    cacheline.Pad
}

// init sizes the ring; cap is rounded up to a power of two.
func (d *deque) init(capacity int) {
	if capacity < 2 {
		capacity = 2
	}
	capacity = 1 << bits.Len(uint(capacity-1))
	d.buf = make([]*graph.Node, capacity)
	d.mask = capacity - 1
}

// pushBack appends a node at the back, returning the new size and true,
// or 0 and false when the ring is full (the caller spills to the
// injector queue).
func (d *deque) pushBack(n *graph.Node) (int, bool) {
	d.mu.Lock()
	if d.tail-d.head == len(d.buf) {
		d.mu.Unlock()
		return 0, false
	}
	d.buf[d.tail&d.mask] = n
	d.tail++
	size := d.tail - d.head
	d.mu.Unlock()
	return size, true
}

// popBack removes and returns the most recently pushed node, or nil.
func (d *deque) popBack() *graph.Node {
	d.mu.Lock()
	if d.tail == d.head {
		d.mu.Unlock()
		return nil
	}
	d.tail--
	n := d.buf[d.tail&d.mask]
	d.buf[d.tail&d.mask] = nil
	d.mu.Unlock()
	return n
}

// grabHalf removes the oldest half of the deque (at least one element,
// at most len(buf)/2+1) into dst, oldest first, and returns the count.
// It refuses deques holding fewer than minSize elements, so a polite
// thief can decline to take a victim's last queued task.  The thief runs
// dst[0] immediately and keeps the rest, so one steal rebalances a whole
// batch of queued work instead of bouncing on the victim's lock once per
// task.
func (d *deque) grabHalf(dst []*graph.Node, minSize int) int {
	d.mu.Lock()
	size := d.tail - d.head
	if size == 0 || size < minSize {
		d.mu.Unlock()
		return 0
	}
	k := (size + 1) / 2
	if k > len(dst) {
		k = len(dst)
	}
	for i := 0; i < k; i++ {
		dst[i] = d.buf[d.head&d.mask]
		d.buf[d.head&d.mask] = nil
		d.head++
	}
	d.mu.Unlock()
	return k
}

// size returns the number of queued nodes.
func (d *deque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tail - d.head
}
