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

// Arg is one bound task parameter, built with In, Out, InOut, Value or
// Opaque (optionally restricted to a Region with the *R variants).
type Arg struct {
	kind   argKind
	mode   deps.Mode
	region deps.Region
	// data is the tracked object of a data argument, the value of a Value
	// or Opaque one.
	data any
}

// In declares data the task only reads ("input" clause).  data must be a
// slice or a pointer.
func In(data any) Arg { return Arg{kind: argData, mode: deps.ModeIn, data: data} }

// Out declares data the task completely overwrites ("output" clause).
// The runtime may hand the task a renamed, uninitialized instance, so the
// task must not read it before writing.
func Out(data any) Arg { return Arg{kind: argData, mode: deps.ModeOut, data: data} }

// InOut declares data the task reads and writes ("inout" clause).
func InOut(data any) Arg { return Arg{kind: argData, mode: deps.ModeInOut, data: data} }

// InR is In restricted to a sub-array region (§V.A extension).
func InR(data any, r Region) Arg {
	return Arg{kind: argData, mode: deps.ModeIn, region: r, data: data}
}

// OutR is Out restricted to a sub-array region.  Region writes never
// rename, so the task writes the named elements in place.
func OutR(data any, r Region) Arg {
	return Arg{kind: argData, mode: deps.ModeOut, region: r, data: data}
}

// InOutR is InOut restricted to a sub-array region.
func InOutR(data any, r Region) Arg {
	return Arg{kind: argData, mode: deps.ModeInOut, region: r, data: data}
}

// Value passes v by value: it is copied at submission and never analyzed
// for dependencies, like scalar parameters in the paper's examples
// ("input(i, j)" on ints).
func Value(v any) Arg { return Arg{kind: argValue, data: v} }

// Opaque passes v without any dependency analysis, reproducing the
// paper's "opaque pointers": parameters of type void* pass through the
// runtime unaltered (§II).  Opaque arguments are the foundation of the
// representant technique (§V.B).
func Opaque(v any) Arg { return Arg{kind: argOpaque, data: v} }

// dataKey returns the dependency-analysis identity of a data argument:
// the base address of the slice's backing array, or the pointer value.
// This mirrors the 2008 runtime, which keys its analysis on parameter
// memory addresses.
func dataKey(data any) uintptr { return dataid.Key(data) }

// copyInto copies src's contents into dst; both must have the shape
// dataid.AllocLike produces for the same exemplar.
func copyInto(dst, src any) { dataid.CopyInto(dst, src) }
