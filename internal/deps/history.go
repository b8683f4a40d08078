package deps

import (
	"math"
	"math/bits"

	"repro/internal/graph"
)

// regionEntry is one access in the history of a region-tracked object.
type regionEntry struct {
	region Region
	task   graph.Ref
	writes bool
}

// firstBucket is the lowest bucket key a bucketed entry is filed under.
func (e *regionEntry) firstBucket(shift uint) int64 { return e.region.lo[0] >> shift }

// regionBucket holds the entries filed under one bucket key, writers
// apart from readers: a reading access is ordered after writers only, so
// it never walks the readers.
type regionBucket struct {
	key     int64
	writers []regionEntry
	readers []regionEntry
}

func (b *regionBucket) add(e regionEntry) {
	if e.writes {
		b.writers = append(b.writers, e)
	} else {
		b.readers = append(b.readers, e)
	}
}

const (
	// maxSpan is the most buckets one entry is filed under; an access
	// whose first-dimension interval crosses more goes to the wide list.
	maxSpan = 8
	// minSweep is the fewest insertions between two sweeps.
	minSweep = 64
	// maxShift keeps bucket keys of the widest intervals apart.
	maxShift = 62
)

// regionHistory is the live access history of one region-tracked object,
// indexed so that an access meets the entries it can overlap and not the
// rest: a grid over the first dimension.  An entry whose interval there
// crosses at most maxSpan buckets of width 1<<shift is filed (by value)
// under each of them; anything else — the whole object, another
// dimensionality than the grid's, a wider interval — sits on the wide
// list, which every access walks.  Further dimensions are tested exactly
// on the entries the grid lets through.
//
// Completed entries are dropped from whatever list an access walks, and
// every list is swept once the insertions since the last sweep match the
// entries that survived it, so the history holds a bounded multiple of
// the live accesses wherever in the object they fall.  The sweep also
// re-derives the bucket width from the survivors.
//
// All of it belongs to the tracker's owner, the thread that may recycle
// task records (see graph.Ref).
type regionHistory struct {
	dims  int  // dimensionality of the grid; 0 until the first bounded access
	shift uint // log2 of the bucket width

	buckets map[int64]*regionBucket
	used    []*regionBucket // the map's values, in creation order
	free    []*regionBucket // emptied by a sweep, lists kept for reuse
	wide    regionBucket

	slots   int // entries held over all lists, copies included
	inserts int // since the last sweep
	sweepAt int // inserts that trigger the next one

	scratch  []regionEntry // the survivors of a sweep in flight; empty between sweeps
	examined int64         // entries walked, for tests that pin the cost
}

func newRegionHistory() *regionHistory {
	return &regionHistory{buckets: make(map[int64]*regionBucket), sweepAt: minSweep}
}

// widthShift returns log2 of the smallest power-of-two bucket width that
// is no narrower than the first-dimension interval of r.
func widthShift(r *Region) uint {
	return min(uint(bits.Len64(uint64(r.hi[0])-uint64(r.lo[0]))), maxShift)
}

// span returns the bucket keys whose entries r can overlap, and whether r
// is of the grid's kind with few enough of them to be filed under each.
func (h *regionHistory) span(r *Region) (first, last int64, ok bool) {
	if r.dims != h.dims || h.dims == 0 {
		return math.MinInt64, math.MaxInt64, false // dimension 0 filters nothing
	}
	first, last = r.lo[0]>>h.shift, r.hi[0]>>h.shift
	return first, last, uint64(last)-uint64(first) < maxSpan
}

// insert records a non-empty access.
func (h *regionHistory) insert(e regionEntry) {
	if h.inserts++; h.inserts >= h.sweepAt {
		h.sweep()
	}
	if h.dims == 0 && !e.region.IsFull() {
		h.dims, h.shift = e.region.dims, widthShift(&e.region)
	}
	h.file(e)
}

func (h *regionHistory) file(e regionEntry) {
	first, last, ok := h.span(&e.region)
	if !ok {
		h.wide.add(e)
		h.slots++
		return
	}
	for k := first; ; k++ {
		b := h.buckets[k]
		if b == nil {
			if n := len(h.free); n > 0 {
				b, h.free = h.free[n-1], h.free[:n-1]
			} else {
				b = new(regionBucket)
			}
			b.key = k
			h.buckets[k] = b
			h.used = append(h.used, b)
		}
		b.add(e)
		h.slots++
		if k == last {
			return
		}
	}
}

// sweep drops every completed entry, re-derives the bucket width from
// the survivors and files them again.
func (h *regionHistory) sweep() {
	var widths [maxShift + 1]int
	h.collect(&h.wide.writers, &h.wide, &widths)
	h.collect(&h.wide.readers, &h.wide, &widths)
	for _, b := range h.used {
		h.collect(&b.writers, b, &widths)
		h.collect(&b.readers, b, &widths)
	}
	h.free = append(h.free, h.used...)
	clear(h.used)
	h.used = h.used[:0]
	clear(h.buckets)

	// Buckets as wide as the 7/8 quantile of the survivors' intervals:
	// most entries land in one or two, and an odd narrow or wide access
	// does not set the grid for the rest.
	bounded := 0
	for _, n := range widths {
		bounded += n
	}
	need := bounded - bounded/8
	for s, n := range widths {
		if need -= n; n > 0 && need <= 0 {
			h.shift = uint(s)
			break
		}
	}
	h.slots = 0
	for _, e := range h.scratch {
		h.file(e)
	}
	h.inserts, h.sweepAt = 0, max(minSweep, h.slots)
	clear(h.scratch)
	h.scratch = h.scratch[:0]
}

// collect moves the live entries of one list of bucket b to the scratch
// list, counting the bucket widths the grid's own would have asked for.
func (h *regionHistory) collect(l *[]regionEntry, b *regionBucket, widths *[maxShift + 1]int) {
	for i := range *l {
		e := &(*l)[i]
		// A bucketed entry survives through its first copy.
		if e.task.Done() || b != &h.wide && e.firstBucket(h.shift) != b.key {
			continue
		}
		h.scratch = append(h.scratch, *e)
		if e.region.dims == h.dims && h.dims != 0 {
			widths[widthShift(&e.region)]++
		}
	}
	clear(*l)
	*l = (*l)[:0]
}

// scan calls visit once for every live entry that overlaps q — writers
// only, unless readers is set — until visit returns false, and drops the
// completed entries of the lists it walks.
func (h *regionHistory) scan(q *Region, readers bool, visit func(e *regionEntry) bool) {
	if q.Empty() {
		return
	}
	// A bucketed entry that shares several buckets with q is met in each;
	// it is visited in the first they share: from is q's first bucket.
	walk := func(b *regionBucket, from int64) bool {
		return h.walk(&b.writers, b, q, from, visit) &&
			(!readers || h.walk(&b.readers, b, q, from, visit))
	}
	if !walk(&h.wide, 0) {
		return
	}
	first, last, ok := h.span(q)
	if !ok {
		// More keys than there are buckets, possibly: walk those instead.
		for _, b := range h.used {
			if b.key >= first && b.key <= last && !walk(b, first) {
				return
			}
		}
		return
	}
	for k := first; ; k++ {
		if b := h.buckets[k]; b != nil && !walk(b, first) {
			return
		}
		if k == last {
			return
		}
	}
}

// walk is scan over one list of bucket b.
func (h *regionHistory) walk(l *[]regionEntry, b *regionBucket, q *Region, from int64, visit func(e *regionEntry) bool) bool {
	more := true
	live := (*l)[:0]
	for i := range *l {
		e := &(*l)[i]
		h.examined++
		if e.task.Done() {
			continue
		}
		live = append(live, *e)
		if more && (b == &h.wide || b.key == max(from, e.firstBucket(h.shift))) && e.region.Overlaps(*q) {
			more = visit(&live[len(live)-1])
		}
	}
	h.slots -= len(*l) - len(live)
	clear((*l)[len(live):])
	*l = live
	return more
}
