// Package apps implements the two non-linear-algebra workloads of the
// paper's evaluation — Multisort (§VI.D) and N-Queens (§VI.E) — in all
// the programming models the paper compares: sequential, SMPSs, Cilk and
// OpenMP 3.0 tasks.  The codes follow the Cilk 5 distribution examples
// the paper adapted.
package apps

import (
	"sort"

	"repro/internal/cilkrt"
	"repro/internal/core"
	"repro/internal/omptask"
)

// SortConfig tunes the multisort granularity.
type SortConfig struct {
	// QuickSize is the paper's QUICKSIZE: subarrays at most this long
	// are sorted directly by the seqquick task.
	QuickSize int
	// MergeSize bounds the leaf seqmerge task size.
	MergeSize int
}

// DefaultSortConfig matches the granularity regime of the Cilk 5
// cilksort example (scaled for task granularities of ~100µs on modern
// cores).
var DefaultSortConfig = SortConfig{QuickSize: 16 << 10, MergeSize: 16 << 10}

// insertionThreshold is the cutoff below which seqquick switches to
// insertion sort ("insertion sort for very small regions", §VI.D).
const insertionThreshold = 24

// insertionSort sorts data in place.
func insertionSort(data []int64) {
	for i := 1; i < len(data); i++ {
		v := data[i]
		j := i - 1
		for j >= 0 && data[j] > v {
			data[j+1] = data[j]
			j--
		}
		data[j+1] = v
	}
}

// seqQuick is the seqquick task body: an in-place quicksort with
// median-of-three pivoting and an insertion-sort base case.
func seqQuick(data []int64) {
	for len(data) > insertionThreshold {
		lo, hi := 0, len(data)-1
		mid := lo + (hi-lo)/2
		// Median-of-three to the middle.
		if data[mid] < data[lo] {
			data[mid], data[lo] = data[lo], data[mid]
		}
		if data[hi] < data[lo] {
			data[hi], data[lo] = data[lo], data[hi]
		}
		if data[hi] < data[mid] {
			data[hi], data[mid] = data[mid], data[hi]
		}
		pivot := data[mid]
		i, j := lo, hi
		for i <= j {
			for data[i] < pivot {
				i++
			}
			for data[j] > pivot {
				j--
			}
			if i <= j {
				data[i], data[j] = data[j], data[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, loop on the larger.
		if j-lo < hi-i {
			seqQuick(data[lo : j+1])
			data = data[i : hi+1]
		} else {
			seqQuick(data[i : hi+1])
			data = data[lo : j+1]
		}
	}
	insertionSort(data)
}

// seqMerge is the seqmerge task body: merge two sorted runs into dest.
func seqMerge(a, b, dest []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dest[k] = a[i]
			i++
		} else {
			dest[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dest[k:], a[i:])
	copy(dest[k:], b[j:])
}

// MultisortSeq is the sequential baseline: the same 4-way multisort
// structure run without any parallel artifacts (the paper insists the
// sequential version must not contain per-task copies, §VI.E applies the
// same philosophy here).
func MultisortSeq(data []int64, cfg SortConfig) {
	tmp := make([]int64, len(data))
	seqMultisort(data, tmp, cfg)
}

func seqMultisort(data, tmp []int64, cfg SortConfig) {
	n := len(data)
	if n <= cfg.QuickSize {
		seqQuick(data)
		return
	}
	q := n / 4
	i1, j1 := 0, q
	i2, j2 := q, 2*q
	i3, j3 := 2*q, 3*q
	i4, j4 := 3*q, n
	seqMultisort(data[i1:j1], tmp[i1:j1], cfg)
	seqMultisort(data[i2:j2], tmp[i2:j2], cfg)
	seqMultisort(data[i3:j3], tmp[i3:j3], cfg)
	seqMultisort(data[i4:j4], tmp[i4:j4], cfg)
	seqMerge(data[i1:j1], data[i2:j2], tmp[i1:j2])
	seqMerge(data[i3:j3], data[i4:j4], tmp[i3:j4])
	seqMerge(tmp[i1:j2], tmp[i3:j4], data)
}

// lowerBound returns the first index in sorted run r with r[i] >= v.
func lowerBound(r []int64, v int64) int {
	return sort.Search(len(r), func(i int) bool { return r[i] >= v })
}

// ---------------------------------------------------------------------
// Cilk version: spawn/sync with recursive parallel merge (the cilksort
// example the paper's code is based on).

// MultisortCilk sorts data on a Cilk-style runtime.
func MultisortCilk(rt *cilkrt.RT, data []int64, cfg SortConfig) {
	tmp := make([]int64, len(data))
	rt.Run(func(c *cilkrt.Ctx) { cilkSort(c, data, tmp, cfg) })
}

func cilkSort(c *cilkrt.Ctx, data, tmp []int64, cfg SortConfig) {
	n := len(data)
	if n <= cfg.QuickSize {
		seqQuick(data)
		return
	}
	q := n / 4
	d1, t1 := data[0:q], tmp[0:q]
	d2, t2 := data[q:2*q], tmp[q:2*q]
	d3, t3 := data[2*q:3*q], tmp[2*q:3*q]
	d4, t4 := data[3*q:], tmp[3*q:]
	c.Spawn(func(c *cilkrt.Ctx) { cilkSort(c, d1, t1, cfg) })
	c.Spawn(func(c *cilkrt.Ctx) { cilkSort(c, d2, t2, cfg) })
	c.Spawn(func(c *cilkrt.Ctx) { cilkSort(c, d3, t3, cfg) })
	cilkSort(c, d4, t4, cfg)
	c.Sync()
	c.Spawn(func(c *cilkrt.Ctx) { cilkMerge(c, d1, d2, tmp[0:2*q], cfg) })
	cilkMerge(c, d3, d4, tmp[2*q:], cfg)
	c.Sync()
	cilkMerge(c, tmp[0:2*q], tmp[2*q:], data, cfg)
	c.Sync()
}

// cilkMerge merges sorted runs a and b into dest with divide-and-conquer
// parallelism: split a at its middle, binary-search the split point in
// b, and merge the two halves in parallel.
func cilkMerge(c *cilkrt.Ctx, a, b, dest []int64, cfg SortConfig) {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a)+len(b) <= cfg.MergeSize || len(a) <= 1 {
		seqMerge(a, b, dest)
		return
	}
	ma := len(a) / 2
	mb := lowerBound(b, a[ma])
	al, ar := a[:ma], a[ma:]
	bl, br := b[:mb], b[mb:]
	c.Spawn(func(c *cilkrt.Ctx) { cilkMerge(c, al, bl, dest[:ma+mb], cfg) })
	cilkMerge(c, ar, br, dest[ma+mb:], cfg)
	c.Sync()
}

// ---------------------------------------------------------------------
// OpenMP 3.0 tasks version: identical structure with task/taskwait.

// MultisortOMP sorts data on the OpenMP-tasks-style runtime.
func MultisortOMP(rt *omptask.RT, data []int64, cfg SortConfig) {
	tmp := make([]int64, len(data))
	rt.Parallel(func(c *omptask.Ctx) { ompSort(c, data, tmp, cfg) })
}

func ompSort(c *omptask.Ctx, data, tmp []int64, cfg SortConfig) {
	n := len(data)
	if n <= cfg.QuickSize {
		seqQuick(data)
		return
	}
	q := n / 4
	d1, t1 := data[0:q], tmp[0:q]
	d2, t2 := data[q:2*q], tmp[q:2*q]
	d3, t3 := data[2*q:3*q], tmp[2*q:3*q]
	d4, t4 := data[3*q:], tmp[3*q:]
	c.Task(func(c *omptask.Ctx) { ompSort(c, d1, t1, cfg) })
	c.Task(func(c *omptask.Ctx) { ompSort(c, d2, t2, cfg) })
	c.Task(func(c *omptask.Ctx) { ompSort(c, d3, t3, cfg) })
	ompSort(c, d4, t4, cfg)
	c.Taskwait()
	c.Task(func(c *omptask.Ctx) { ompMerge(c, d1, d2, tmp[0:2*q], cfg) })
	ompMerge(c, d3, d4, tmp[2*q:], cfg)
	c.Taskwait()
	ompMerge(c, tmp[0:2*q], tmp[2*q:], data, cfg)
	c.Taskwait()
}

func ompMerge(c *omptask.Ctx, a, b, dest []int64, cfg SortConfig) {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a)+len(b) <= cfg.MergeSize || len(a) <= 1 {
		seqMerge(a, b, dest)
		return
	}
	ma := len(a) / 2
	mb := lowerBound(b, a[ma])
	al, ar := a[:ma], a[ma:]
	bl, br := b[:mb], b[mb:]
	c.Task(func(c *omptask.Ctx) { ompMerge(c, al, bl, dest[:ma+mb], cfg) })
	ompMerge(c, ar, br, dest[ma+mb:], cfg)
	c.Taskwait()
}

// ---------------------------------------------------------------------
// SMPSs version: array-region tasks (paper Fig. 7 + §VI.D).
//
// Leaf quicksorts and leaf merges are tasks carrying region
// directionality on the data and tmp arrays; the recursive sort/merge
// decomposition runs on the main thread, exactly as §VI.D describes
// ("the seqmerge task invocations have been replaced by calls to a
// recursive merge function that ends up calling said task when the
// operated range is small enough").
//
// One divergence is forced by the model: splitting a merge range needs
// binary searches on already-sorted data, so before decomposing a merge
// the main thread performs a WaitOn on the two source regions (executing
// tasks while it waits).  The leaf tasks of independent subtrees still
// overlap freely through their region dependencies.

type smpssSorter struct {
	ctx      *core.Context
	data     []int64
	tmp      []int64
	cfg      SortConfig
	coarse   bool
	seqquick *core.TaskDef
	seqmerge *core.TaskDef
	seqcopy  *core.TaskDef
	err      error // first submission refusal; later submits are skipped
}

// submit forwards to the context until the first refusal (closed or
// canceled context) and latches it: every later submission would fail
// with the same error, so the sort just stops feeding the graph.
func (s *smpssSorter) submit(def *core.TaskDef, args ...core.Arg) {
	if s.err == nil {
		s.err = s.ctx.Submit(def, args...)
	}
}

// MultisortSMPSs sorts data on the SMPSs runtime using array-region
// dependencies.
func MultisortSMPSs(ctx *core.Context, data []int64, cfg SortConfig) error {
	return multisortSMPSs(ctx, data, cfg, false)
}

// MultisortSMPSsCoarse is the regions-off ablation: every task declares
// whole-array directionality, which is all the 2008 runtime could
// express without representants (§V.B).  The resulting dependency chains
// serialize the sort, quantifying what the array-region extension buys.
func MultisortSMPSsCoarse(ctx *core.Context, data []int64, cfg SortConfig) error {
	return multisortSMPSs(ctx, data, cfg, true)
}

func multisortSMPSs(ctx *core.Context, data []int64, cfg SortConfig, coarse bool) error {
	s := &smpssSorter{ctx: ctx, data: data, tmp: make([]int64, len(data)), cfg: cfg, coarse: coarse}
	// #pragma css task inout(data{i..j}) input(i, j)
	s.seqquick = core.NewTaskDef("seqquick", func(a *core.Args) {
		d := a.I64(0)
		i, j := a.Int(1), a.Int(2)
		seqQuick(d[i : j+1])
	})
	// #pragma css task input(data{i1..j1}, data{i2..j2}) output(dest{k1..k2})
	s.seqmerge = core.NewTaskDef("seqmerge", func(a *core.Args) {
		src := a.I64(0)
		dst := a.I64(1)
		i1, j1 := a.Int(2), a.Int(3)
		i2, j2 := a.Int(4), a.Int(5)
		k1 := a.Int(6)
		seqMerge(src[i1:j1+1], src[i2:j2+1], dst[k1:k1+(j1-i1+1)+(j2-i2+1)])
	})
	// #pragma css task input(src{lo..hi}) output(dst{lo..hi})
	s.seqcopy = core.NewTaskDef("seqcopy", func(a *core.Args) {
		src, dst := a.I64(0), a.I64(1)
		lo, hi := a.Int(2), a.Int(3)
		copy(dst[lo:hi+1], src[lo:hi+1])
	})
	s.sort(0, len(data)-1)
	err := ctx.Barrier()
	// tmp dies with this call; without this the context would keep its
	// tracker object, region history and the buffer itself forever.
	ctx.Forget(s.tmp)
	if err != nil {
		return err
	}
	return s.err
}

// region returns the dependency region for [lo..hi]: the precise
// interval normally, or the whole array in the coarse ablation.
func (s *smpssSorter) region(lo, hi int) core.Region {
	if s.coarse {
		return core.Region{}
	}
	return core.Interval(int64(lo), int64(hi))
}

// sort submits tasks sorting data[lo..hi] inclusive.
//
// The leaf task structure follows Fig. 7 (seqquick leaves, seqmerge
// leaves on array regions), but the merge schedule is bottom-up rather
// than depth-first: all leaf quicksorts are submitted first, then each
// merge level pairs adjacent runs.  The main thread must read sorted
// data to compute merge split points (a WaitOn per pair), and the
// bottom-up order lets workers chew one pair's leaf merges while the
// main thread decomposes the next, instead of blocking on a whole
// subtree at a time.
func (s *smpssSorter) sort(lo, hi int) {
	type run struct{ lo, hi int }
	// Level 0: chunks of at most QuickSize keys, sorted by seqquick
	// tasks, all independent through their disjoint regions.
	var runs []run
	for at := lo; at <= hi; at += s.cfg.QuickSize {
		end := at + s.cfg.QuickSize - 1
		if end > hi {
			end = hi
		}
		runs = append(runs, run{at, end})
		s.submit(s.seqquick,
			core.InOutR(s.data, s.region(at, end)),
			core.Value(at), core.Value(end))
	}
	// Merge levels, alternating data→tmp→data buffers.
	src, dst := s.data, s.tmp
	for len(runs) > 1 {
		var next []run
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				// Odd run out: carry it to the other buffer so the
				// whole level ends up in dst.
				r := runs[i]
				s.copyRun(src, dst, r.lo, r.hi)
				next = append(next, r)
				continue
			}
			a, b := runs[i], runs[i+1]
			s.merge(src, dst, a.lo, a.hi, b.lo, b.hi, a.lo)
			next = append(next, run{a.lo, b.hi})
		}
		runs = next
		src, dst = dst, src
	}
	if len(runs) == 1 && &src[0] != &s.data[0] {
		// The sorted result landed in tmp: copy it back with leaf-sized
		// parallel tasks.
		r := runs[0]
		for at := r.lo; at <= r.hi; at += s.cfg.MergeSize {
			end := at + s.cfg.MergeSize - 1
			if end > r.hi {
				end = r.hi
			}
			s.copyRun(src, s.data, at, end)
		}
	}
}

// copyRun submits a region-to-region copy task.
func (s *smpssSorter) copyRun(src, dst []int64, lo, hi int) {
	destArg := core.OutR(dst, s.region(lo, hi))
	if s.coarse {
		destArg = core.InOut(dst)
	}
	s.submit(s.seqcopy,
		core.InR(src, s.region(lo, hi)),
		destArg,
		core.Value(lo), core.Value(hi))
}

// merge decomposes the merge of src[lo1..hi1] and src[lo2..hi2] into
// dest starting at dlo, submitting leaf seqmerge tasks.
func (s *smpssSorter) merge(src, dest []int64, lo1, hi1, lo2, hi2, dlo int) {
	// The split points require reading sorted source data.
	if err := s.ctx.WaitOnRegion(src, s.region(lo1, hi1)); err != nil {
		return
	}
	if err := s.ctx.WaitOnRegion(src, s.region(lo2, hi2)); err != nil {
		return
	}
	s.mergeRec(src, dest, lo1, hi1, lo2, hi2, dlo)
}

func (s *smpssSorter) mergeRec(src, dest []int64, lo1, hi1, lo2, hi2, dlo int) {
	n1, n2 := hi1-lo1+1, hi2-lo2+1
	if n1 < n2 {
		lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
		n1, n2 = n2, n1
	}
	if n1+n2 <= s.cfg.MergeSize || n1 <= 1 {
		s.submitLeafMerge(src, dest, lo1, hi1, lo2, hi2, dlo)
		return
	}
	mid1 := lo1 + n1/2
	var split2 int
	if n2 > 0 {
		split2 = lo2 + lowerBound(src[lo2:hi2+1], src[mid1])
	} else {
		split2 = lo2
	}
	leftLen := (mid1 - lo1) + (split2 - lo2)
	s.mergeRec(src, dest, lo1, mid1-1, lo2, split2-1, dlo)
	s.mergeRec(src, dest, mid1, hi1, split2, hi2, dlo+leftLen)
}

// submitLeafMerge submits one seqmerge task with region directionality,
// handling empty runs by falling back to a copy-shaped merge (seqMerge
// tolerates empty inputs).
func (s *smpssSorter) submitLeafMerge(src, dest []int64, lo1, hi1, lo2, hi2, dlo int) {
	n := (hi1 - lo1 + 1) + (hi2 - lo2 + 1)
	if n <= 0 {
		return
	}
	destArg := core.OutR(dest, s.region(dlo, dlo+n-1))
	if s.coarse {
		// A whole-array output that is only partially written would be
		// renamed to fresh storage and lose the other runs; declare the
		// honest read-modify-write instead.
		destArg = core.InOut(dest)
	}
	// An array with room for the optional argument, so that the list
	// stays on the stack whichever way the test below goes.
	args := [8]core.Arg{
		core.InR(src, s.region(lo1, hi1)),
		destArg,
		core.Value(lo1), core.Value(hi1),
		core.Value(lo2), core.Value(hi2),
		core.Value(dlo),
	}
	nargs := 7
	if hi2 >= lo2 {
		// Second source region present.
		args[nargs] = core.InR(src, s.region(lo2, hi2))
		nargs++
	}
	s.submit(s.seqmerge, args[:nargs]...)
}
