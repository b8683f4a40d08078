package recycle

import (
	"testing"
	"unsafe"
)

// held returns the bytes of storage class c keeps for later lists; the
// owner's thread only.
func (s *Spill[E]) held(c int) int64 {
	var e E
	f := &s.classes[c]
	f.mu.Lock()
	n := len(f.ready) + len(f.freed)
	f.mu.Unlock()
	return int64(n) * int64(minSpill<<c) * int64(unsafe.Sizeof(e))
}

// TestSpillMovesListsIntact: a list keeps its elements, in order, as it
// moves up the classes, and Free hands back the room it started in.
func TestSpillMovesListsIntact(t *testing.T) {
	var s Spill[int]
	var room [3]int
	list := room[:0]
	for i := 0; i < 1000; i++ {
		list = s.Append(list, i)
	}
	for i, v := range list {
		if v != i {
			t.Fatalf("list[%d] = %d after the moves", i, v)
		}
	}
	if c, ok := class(cap(list)); !ok || c != 7 {
		t.Fatalf("a 1000-element list has capacity %d, want class 7 (1024)", cap(list))
	}
	if list = s.Free(list, room[:]); cap(list) != len(room) || len(list) != 0 || &list[:1][0] != &room[0] {
		t.Fatalf("Free returned len %d cap %d, not the emptied room", len(list), cap(list))
	}
	if room != [3]int{} {
		t.Fatalf("the room keeps %v after the list left it", room)
	}
	// A list that never left its room stays there, emptied.
	list = s.Append(room[:0], 7)
	if list = s.Free(list, nil); cap(list) != len(room) || room[0] != 0 {
		t.Fatalf("an unspilled list left its room: cap %d, room %v", cap(list), room)
	}
}

// TestSpillIdleStorageBounded: after a one-off fan-out a hundred thousand
// wide, the store keeps at most spillBytesPerClass in any class, and far
// less than the list's peak in all.
func TestSpillIdleStorageBounded(t *testing.T) {
	const wide = 100_000
	var s Spill[*int]
	x := new(int)
	var list []*int
	for i := 0; i < wide; i++ {
		list = s.Append(list, x)
	}
	peak := int64(cap(list)) * int64(unsafe.Sizeof(x))
	s.Free(list, nil)
	var idle int64
	for c := range s.classes {
		b := s.held(c)
		if b > spillBytesPerClass {
			t.Errorf("class %d keeps %d idle bytes, bound %d", c, b, spillBytesPerClass)
		}
		idle += b
	}
	if idle > peak/2 {
		t.Fatalf("the store keeps %d idle bytes after a list of %d bytes, want at most half", idle, peak)
	}
	// A list past the largest class is the collector's, not the store's.
	if _, ok := class(cap(list)); ok {
		t.Fatalf("a %d-wide list ended in class storage (cap %d)", wide, cap(list))
	}
}

// TestFreeListBounded: a FreeList keeps at most maxFreeRecords on its Put
// side and drops the rest.
func TestFreeListBounded(t *testing.T) {
	var f FreeList[int]
	for i := 0; i < maxFreeRecords+10; i++ {
		f.Put(new(int))
	}
	n := 0
	for f.Get() != nil {
		n++
	}
	if n != maxFreeRecords {
		t.Fatalf("free list returned %d records, want %d", n, maxFreeRecords)
	}
}
