// Package core is the SMPSs runtime library: the public programming
// interface of this reproduction of "A Dependency-Aware Task-Based
// Programming Environment for Multi-Core Architectures" (CLUSTER 2008).
//
// An SMPSs program is a sequential program whose compute kernels are
// declared as tasks.  In the paper tasks are plain C functions annotated
// with "#pragma css task input(...) output(...) inout(...)"; the
// source-to-source compiler rewrites each call into a runtime invocation
// carrying every parameter's address, size and directionality.  This
// package is the runtime those calls target.  In Go the same contract is
// expressed directly:
//
//	sgemm := core.NewTaskDef("sgemm_t", func(a *core.Args) {
//	        kernels.GemmNN(a.F32(0), a.F32(1), a.F32(2), M)
//	})
//	rt := core.New(core.Config{Workers: 8})
//	rt.Submit(sgemm, core.In(ab), core.In(bb), core.InOut(cb))
//	rt.Barrier()
//
// The runtime analyzes dependencies between task parameters at run time,
// builds the task graph, renames data to remove false dependencies, and
// schedules ready tasks with the locality-aware work-stealing policy of
// paper §III.
package core

import (
	"math"

	"repro/internal/dataid"
	"repro/internal/deps"
)

// Region re-exports deps.Region: the array-region specifier of the
// paper's §V.A language extension.
type Region = deps.Region

// Interval returns the 1-D region lo..hi inclusive ("data{lo..hi}").
func Interval(lo, hi int64) Region { return deps.Interval(lo, hi) }

// Span returns the 1-D region of n elements starting at lo ("{lo:n}").
func Span(lo, n int64) Region { return deps.Span(lo, n) }

// Rect returns an N-D region from (lo, hi) pairs per dimension.
func Rect(bounds ...int64) Region { return deps.Rect(bounds...) }

// argKind distinguishes how a submitted argument participates in
// dependency analysis.
type argKind uint8

const (
	argData argKind = iota
	argValue
	argOpaque
)

// valueKind is how a Value argument's eight bytes are to be read.
type valueKind uint8

const (
	vSigned   valueKind = iota // an int64, sign-extended
	vUnsigned                  // a uint64, zero-extended
	vFloat                     // a float64, widened exactly
)

// Arg is one bound task parameter, built with In, Out, InOut, Value or
// Opaque (optionally restricted to a Region with the *R variants; InPtr,
// OutPtr and InOutPtr for a pointer).  It is the flat record the paper's
// compiler passes per parameter — address, size, directionality — and
// building one allocates nothing.
type Arg struct {
	// One word: what the argument is, and the dimension count of its
	// region (the bounds follow the reference).
	kind  argKind
	mode  deps.Mode
	dims  uint8
	vkind valueKind
	// ref is the tracked object of a data argument; the value of a Value
	// one, widened to eight bytes, in its length word under the type word
	// of a pointer to its type; the two words of an Opaque one's `any`.
	ref    dataid.Ref
	bounds deps.Extents
}

// integer and float are the types Value passes.
type (
	integer interface {
		~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
	}
	float interface{ ~float32 | ~float64 }
)

func dataArg(mode deps.Mode, ref dataid.Ref) Arg { return Arg{kind: argData, mode: mode, ref: ref} }

// within restricts a data argument to region r.
func (a *Arg) within(r *Region) { a.dims, a.bounds = uint8(r.Dims()), r.Extents }

// In declares data the task only reads ("input" clause).
func In[T any](s []T) Arg { return dataArg(deps.ModeIn, dataid.Slice(s)) }

// Out declares data the task completely overwrites ("output" clause).
// The runtime may hand the task a renamed, uninitialized instance, so the
// task must not read it before writing.
func Out[T any](s []T) Arg { return dataArg(deps.ModeOut, dataid.Slice(s)) }

// InOut declares data the task reads and writes ("inout" clause).
func InOut[T any](s []T) Arg { return dataArg(deps.ModeInOut, dataid.Slice(s)) }

// InR is In restricted to a sub-array region (§V.A extension).
func InR[T any](s []T, r Region) Arg {
	a := In(s)
	a.within(&r)
	return a
}

// OutR is Out restricted to a sub-array region.  Region writes never
// rename, so the task writes the named elements in place.
func OutR[T any](s []T, r Region) Arg {
	a := Out(s)
	a.within(&r)
	return a
}

// InOutR is InOut restricted to a sub-array region.
func InOutR[T any](s []T, r Region) Arg {
	a := InOut(s)
	a.within(&r)
	return a
}

// InPtr is In on the one T that p points to.
func InPtr[T any](p *T) Arg { return dataArg(deps.ModeIn, dataid.Pointer(p)) }

// OutPtr is Out on the one T that p points to.
func OutPtr[T any](p *T) Arg { return dataArg(deps.ModeOut, dataid.Pointer(p)) }

// InOutPtr is InOut on the one T that p points to.
func InOutPtr[T any](p *T) Arg { return dataArg(deps.ModeInOut, dataid.Pointer(p)) }

// Value passes v by value: it is copied at submission and never analyzed
// for dependencies, like scalar parameters in the paper's examples
// ("input(i, j)" on ints).  Anything that is not a number goes through
// Opaque.
func Value[T integer | float](v T) Arg {
	// Each test is a constant once T is known, so one arm survives.
	kind, bits := vUnsigned, uint64(v)
	switch {
	case T(1)/2 != 0:
		kind, bits = vFloat, math.Float64bits(float64(v))
	case T(0)-1 < 0:
		kind, bits = vSigned, uint64(int64(v))
	}
	return Arg{kind: argValue, vkind: kind, ref: dataid.Word[T](bits)}
}

// Opaque passes v without any dependency analysis, reproducing the
// paper's "opaque pointers": parameters of type void* pass through the
// runtime unaltered (§II).  Opaque arguments are the foundation of the
// representant technique (§V.B).
func Opaque(v any) Arg { return Arg{kind: argOpaque, ref: dataid.Split(v)} }
