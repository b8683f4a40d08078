// Package recycle holds the free lists that keep the runtime's memory
// bounded and its steady state allocation-free: FreeList recycles the
// fixed-size records of the submission path (task records, versions),
// and Spill the storage their variable-length lists move to once they
// outgrow the room their owner gives them inline (a node's successors,
// a version's readers).  Both start empty, grow only by what is put
// back, drop to the garbage collector past a bound, and, unlike a
// sync.Pool, survive garbage collections.
package recycle

import (
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/cacheline"
)

// maxFreeRecords bounds each side of a FreeList.  A list only ever
// receives what its owner allocated when the list was empty, so it holds
// at most the owner's high-water mark of simultaneously live records;
// the bound keeps a program that once opened a far larger graph than the
// default limit from pinning that peak forever.
const maxFreeRecords = 1 << 15

// FreeList recycles fixed-size records: the tracker's versions, the
// runtime's task records, and, by class, Spill's arrays.
//
// Records are freed by workers and reused by the submitter, so the list
// has two sides, a line of padding apart.  Put pushes onto a mutex-guarded
// stack.  Get belongs to one thread, the single submitter, and pops a
// private batch, taking the lock only to swap an exhausted batch for
// everything freed meanwhile.  The trailing padding keeps the Put side
// off whatever the enclosing struct, or the heap, puts next.  The zero
// value is ready to use.
type FreeList[T any] struct {
	ready []*T //smpss:writer=submitter

	_ cacheline.Pad

	mu    sync.Mutex //smpss:writer=worker
	freed []*T       //smpss:writer=worker

	_ cacheline.Pad
}

// Get removes and returns a freed record, or nil.
func (f *FreeList[T]) Get() *T {
	n := len(f.ready)
	if n == 0 {
		f.mu.Lock()
		f.ready, f.freed = f.freed, f.ready
		f.mu.Unlock()
		if n = len(f.ready); n == 0 {
			return nil
		}
	}
	x := f.ready[n-1]
	f.ready[n-1] = nil
	f.ready = f.ready[:n-1]
	return x
}

// Put frees x, which nothing may reference any more.
func (f *FreeList[T]) Put(x *T) { f.put(x, maxFreeRecords) }

// put frees x unless the Put side already holds max records.
func (f *FreeList[T]) put(x *T, max int) {
	f.mu.Lock()
	if len(f.freed) < max {
		f.freed = append(f.freed, x)
	}
	f.mu.Unlock()
}

const (
	// minSpill is the capacity of the smallest spill.  An owner's inline
	// room is smaller, which is how Append and Free tell the two apart.
	minSpill = 8
	// spillClasses is the number of classes: capacities minSpill,
	// 2·minSpill, … up to 32 Ki elements.  A list that outgrows the
	// largest grows on the heap and is dropped to the garbage collector
	// when it is freed.
	spillClasses = 13
	// spillBytesPerClass bounds the idle storage of one class on each
	// side of its FreeList, in bytes, as freeBytesPerClass does for
	// renamed instances: a class of small arrays keeps as much memory
	// warm as a class of large ones, and a one-off fan-out a hundred
	// thousand wide does not pin its peak.
	spillBytesPerClass = 256 << 10
)

// Spill is the storage lists of E move to when they outgrow their
// owner's inline room: classes of power-of-two capacity from minSpill
// up, each a FreeList holding arrays by their first element.  A full
// list moves up one class, so filling a list of n elements copies fewer
// than 2n, and the owner hands its spill back with Free when the list's
// life ends, going on in its inline room.
//
// Append belongs to the one thread that fills lists (it takes from the
// classes); Free, and the class a moving list leaves, may come from any
// thread.  The zero value is ready to use.
type Spill[E any] struct {
	classes [spillClasses]FreeList[E]
}

// class returns the class of spill capacity n, and whether n is one.
func class(n int) (int, bool) {
	c := bits.Len(uint(n)) - bits.Len(minSpill)
	return c, c >= 0 && c < spillClasses && n == minSpill<<c
}

// Append appends e to list, whose storage is its owner's inline room
// (capacity below minSpill) or a spill from s.  A full list first moves
// to the next class up, and the storage it leaves is freed.
func (s *Spill[E]) Append(list []E, e E) []E {
	if len(list) == cap(list) {
		list = s.grow(list)
	}
	return append(list, e)
}

func (s *Spill[E]) grow(list []E) []E {
	n := minSpill
	for n <= cap(list) {
		n *= 2
	}
	var next []E
	if c, ok := class(n); ok {
		if p := s.classes[c].Get(); p != nil {
			next = unsafe.Slice(p, n)[:0]
		}
	}
	if next == nil {
		next = make([]E, 0, n)
	}
	next = append(next, list...)
	s.free(list)
	return next
}

// Free empties list and returns the list its owner goes on with: the
// list itself while it is still in the inline room, else room, the
// spill going back to s.
func (s *Spill[E]) Free(list, room []E) []E {
	if cap(list) < minSpill {
		clear(list)
		return list[:0]
	}
	s.free(list)
	return room[:0]
}

// free empties list and keeps its storage if it is a class's and the
// class has room for it.  Stored arrays are all zero: a list fills its
// array from the front, and whoever shortens it clears what it cut.
func (s *Spill[E]) free(list []E) {
	clear(list)
	c, ok := class(cap(list))
	if !ok {
		return
	}
	var zero E
	if max := spillBytesPerClass / (cap(list) * int(unsafe.Sizeof(zero))); max > 0 {
		s.classes[c].put(unsafe.SliceData(list), max)
	}
}
