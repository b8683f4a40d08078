// Package deps implements the SMPSs runtime dependency analysis (paper
// §II): every task invocation declares the address, size and
// directionality of each parameter, and the tracker turns that into true
// (read-after-write) dependency edges in the task graph.
//
// False dependencies (write-after-read and write-after-write) are removed
// by renaming: the tracker transparently allocates a fresh instance of the
// data — the same technique superscalar processors apply to registers —
// so temporaries and work arrays never serialize the graph.
//
// The package also implements the array-region language extension of
// paper §V.A, which the 2008 runtime proposed but did not ship: accesses
// may name an N-dimensional sub-rectangle of an object, and only
// overlapping accesses are ordered.
package deps

// MaxDims is the number of dimensions a Region bounds.  A specifier with
// more keeps its first MaxDims and covers the rest entirely, which can
// only add dependencies, never hide one.
const MaxDims = 3

// Region selects a rectangular sub-array of an object, as defined in
// paper §V.A: a list of inclusive (lower, upper) bound pairs, one per
// dimension.  The zero Region (no bounds) selects the whole object,
// matching the paper's empty specifier "{}".
//
// Bounds are expressed in element units of the object's declared shape;
// the tracker only ever compares regions of the same object, so it never
// needs to know element sizes.
//
// A Region is a plain comparable value: building, copying and storing
// one allocates nothing.
type Region struct {
	// dims is the number of bounded dimensions; zero selects the whole
	// object.
	dims int
	Extents
}

// Extents is a Region without its dimension count, for a holder that
// packs the count into a word of its own (core.Arg): the inclusive
// bounds of the first dims dimensions.
type Extents struct{ lo, hi [MaxDims]int64 }

// Join returns the region of the first dims dimensions of e: r is
// Join(r.Dims(), r.Extents).
func Join(dims int, e Extents) Region { return Region{dims, e} }

// Full is the region selecting the entire object.
var Full = Region{}

// Interval returns a one-dimensional region covering elements lo..hi
// inclusive, the common case for flat arrays ("data{i..j}" in the paper's
// syntax).
func Interval(lo, hi int64) Region {
	return Region{1, Extents{lo: [MaxDims]int64{lo}, hi: [MaxDims]int64{hi}}}
}

// Span returns a one-dimensional region of length n starting at lo,
// mirroring the paper's "{l:L}" specifier.
func Span(lo, n int64) Region {
	return Interval(lo, lo+n-1)
}

// Rect returns an N-dimensional region from per-dimension (lo, hi)
// inclusive pairs.  Rect(l0, h0, l1, h1) selects rows l0..h0 and columns
// l1..h1.  It panics if given an odd number of bounds.
func Rect(bounds ...int64) Region {
	if len(bounds)%2 != 0 {
		panic("deps: Rect requires an even number of bounds")
	}
	r := Region{dims: min(len(bounds)/2, MaxDims)}
	for i := 0; i < r.dims; i++ {
		r.lo[i] = bounds[2*i]
		r.hi[i] = bounds[2*i+1]
	}
	return r
}

// Dims returns the number of bounded dimensions; zero for the whole
// object.
func (r Region) Dims() int { return r.dims }

// Bounds returns the inclusive bounds of dimension d < Dims().
func (r Region) Bounds(d int) (lo, hi int64) { return r.lo[d], r.hi[d] }

// IsFull reports whether the region selects the whole object.
func (r Region) IsFull() bool { return r.dims == 0 }

// Empty reports whether the region selects no elements (some dimension
// has Hi < Lo).
func (r Region) Empty() bool {
	for i := 0; i < r.dims; i++ {
		if r.hi[i] < r.lo[i] {
			return true
		}
	}
	return false
}

// Overlaps reports whether two regions of the same object share at least
// one element.  Rectangles overlap iff their bounds intersect in every
// dimension.  A full region overlaps everything non-empty, and regions
// with mismatched dimensionality are conservatively treated as
// overlapping (the tracker must never miss a dependency).
func (r Region) Overlaps(s Region) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	if r.IsFull() || s.IsFull() {
		return true
	}
	if r.dims != s.dims {
		return true
	}
	for i := 0; i < r.dims; i++ {
		if r.hi[i] < s.lo[i] || s.hi[i] < r.lo[i] {
			return false
		}
	}
	return true
}

// Contains reports whether r covers every element of s.  A full region
// contains everything; nothing but a full region contains a full region.
// Mismatched dimensionality is conservatively reported as not containing.
func (r Region) Contains(s Region) bool {
	if r.IsFull() {
		return true
	}
	if s.IsFull() {
		return false
	}
	if r.dims != s.dims {
		return false
	}
	for i := 0; i < r.dims; i++ {
		if s.lo[i] < r.lo[i] || s.hi[i] > r.hi[i] {
			return false
		}
	}
	return true
}
