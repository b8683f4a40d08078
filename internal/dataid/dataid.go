// Package dataid provides the data-identity and storage-shape helpers
// shared by every runtime in this repository (the SMPSs runtime in
// internal/core and the related-work baseline runtimes in
// internal/supermatrix and internal/cellss).
//
// The 2008 SMPSs runtime keys its dependency analysis on parameter memory
// addresses and needs to allocate and copy instances of parameter storage
// for renaming.  Ref is that parameter as the paper's compiler passes it —
// an address, a size and the type needed to make more of it — and Key,
// Bytes, Alloc, Box and CopyInto are the machinery on top.
//
// This is the one package that looks inside an interface value: a Ref
// carries the type word of an `any` without the heap-allocated slice
// header the `any` itself would cost on every task submission.
package dataid

import (
	"fmt"
	"reflect"
	"unsafe"
)

// eface is the runtime's layout of an `any`: the dynamic type's
// descriptor, then the value itself when it is pointer-shaped, a pointer
// to a copy of it otherwise.  TestBoxRoundTrip fails if a Go release
// changes it.
//
// The type word is held as an integer.  That is what lets a constructor
// ask for the type of a value without the compiler concluding that the
// value escapes into the answer (and allocating it), and it is safe: a
// type descriptor is linked into the binary or, when reflect made it at
// run time, kept by reflect for good, so no collection is waiting on it.
type eface struct {
	typ  uintptr
	data unsafe.Pointer
}

// sliceHeader is the value the data word of a boxed slice points to.
type sliceHeader struct {
	p        unsafe.Pointer
	len, cap int
}

// typeWord returns the descriptor of v's dynamic type.
func typeWord(v any) uintptr { return (*eface)(unsafe.Pointer(&v)).typ }

// dataWord returns the second word of v.
func dataWord(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).data }

// box builds the `any` of the two words.
func box(typ uintptr, data unsafe.Pointer) (v any) {
	*(*eface)(unsafe.Pointer(&v)) = eface{typ, data}
	return v
}

// ptrLen is Ref.n of a pointer.
const ptrLen = -1

// Ref is an unboxed reference to a data argument: the type word of the
// []T or *T the program named, the base address, and the slice's length
// (ptrLen for a pointer).  Building and copying one allocates nothing;
// Box builds the `any` it stands for.  The address is visible to the
// collector, so a Ref keeps its data alive like the slice would.
//
// The same words hold an arbitrary `any` taken apart by Split: Any puts
// it back together.
type Ref struct {
	typ uintptr
	p   unsafe.Pointer
	n   int
}

// Slice returns the reference to s.
func Slice[T any](s []T) Ref {
	return Ref{typ: typeWord(s), p: unsafe.Pointer(unsafe.SliceData(s)), n: len(s)}
}

// Pointer returns the reference to *p.
func Pointer[T any](p *T) Ref {
	return Ref{typ: typeWord(p), p: unsafe.Pointer(p), n: ptrLen}
}

// Of returns the reference to a boxed data argument, a slice or a
// pointer; Of(r.Box()) == r.
func Of(data any) Ref {
	if data != nil {
		switch reflect.TypeOf(data).Kind() {
		case reflect.Slice:
			h := (*sliceHeader)(dataWord(data))
			return Ref{typ: typeWord(data), p: h.p, n: h.len}
		case reflect.Pointer:
			return Ref{typ: typeWord(data), p: dataWord(data), n: ptrLen}
		}
	}
	panic(fmt.Sprintf("dataid: data argument must be a slice or pointer, got %v", reflect.TypeOf(data)))
}

// Split takes an arbitrary value apart into the two pointer words of a
// Ref, for a holder that has room for a Ref but not for an `any` beside
// it.  Only Any may be called on the result.
func Split(v any) Ref { return Ref{typ: typeWord(v), p: dataWord(v)} }

// Any returns the value Split took apart, without allocating.
func (r Ref) Any() any { return box(r.typ, r.p) }

// Word returns a reference to no data that carries eight bytes by value
// in its length word: a holder's by-value argument rides where a data
// argument's size does.  Any on it returns (*T)(nil), which names the
// type the bytes were taken from.
func Word[T any](bits uint64) Ref { return Ref{typ: typeWord((*T)(nil)), n: int(bits)} }

// Word returns the eight bytes of a Ref built by Word.
func (r Ref) Word() uint64 { return uint64(r.n) }

// Key returns the dependency-analysis identity of the data: the base
// address of the slice's backing array, or the pointer value.  This
// mirrors the 2008 runtime, which keys its analysis on parameter memory
// addresses.
func (r Ref) Key() uintptr {
	if r.n == 0 {
		panic("dataid: cannot track an empty slice (no address identity)")
	}
	if r.p == nil {
		panic("dataid: cannot track a nil pointer")
	}
	return uintptr(r.p)
}

// Key is Of(data).Key().
func Key(data any) uintptr { return Of(data).Key() }

// Shape returns the reference without its address: what two
// interchangeable instances have in common.  Shapes compare with ==.
func (r Ref) Shape() Ref {
	r.p = nil
	return r
}

// Box returns the slice or pointer r refers to as an `any`.  A slice
// costs the allocation of its header, which is why a runtime boxes once
// per object and not once per task.
func (r Ref) Box() any {
	if r.n == ptrLen {
		return r.Any()
	}
	return box(r.typ, unsafe.Pointer(&sliceHeader{r.p, r.n, r.n}))
}

// The type words of the common slice types, which bypass reflection.
var (
	typF32  = typeWord([]float32(nil))
	typF64  = typeWord([]float64(nil))
	typI64  = typeWord([]int64(nil))
	typI32  = typeWord([]int32(nil))
	typInt  = typeWord([]int(nil))
	typByte = typeWord([]byte(nil))
)

// rtype returns the []T or *T the reference was built from.
func (r Ref) rtype() reflect.Type { return reflect.TypeOf(box(r.typ, nil)) }

// Bytes returns the storage footprint of the data, used to account
// renamed memory against a runtime's memory limit.
func (r Ref) Bytes() int64 {
	n := int64(r.n)
	if r.n == ptrLen {
		n = 1
	}
	switch r.typ {
	case typF64, typI64:
		return n * 8
	case typF32, typI32:
		return n * 4
	case typInt:
		return n * int64(unsafe.Sizeof(int(0)))
	case typByte:
		return n
	}
	return n * int64(r.rtype().Elem().Size())
}

// Alloc returns fresh storage with the shape of r, used by the renaming
// engine.
func (r Ref) Alloc() any {
	switch r.typ {
	case typF32:
		return make([]float32, r.n)
	case typF64:
		return make([]float64, r.n)
	case typI64:
		return make([]int64, r.n)
	case typI32:
		return make([]int32, r.n)
	case typInt:
		return make([]int, r.n)
	case typByte:
		return make([]byte, r.n)
	}
	t := r.rtype()
	if r.n == ptrLen {
		return reflect.New(t.Elem()).Interface()
	}
	return reflect.MakeSlice(t, r.n, r.n).Interface()
}

// CopyInto copies src's contents into dst; both must have the shape
// produced by Alloc for the same reference.
func CopyInto(dst, src any) {
	switch d := dst.(type) {
	case []float32:
		copy(d, src.([]float32))
		return
	case []float64:
		copy(d, src.([]float64))
		return
	case []int64:
		copy(d, src.([]int64))
		return
	case []int32:
		copy(d, src.([]int32))
		return
	case []int:
		copy(d, src.([]int))
		return
	case []byte:
		copy(d, src.([]byte))
		return
	}
	dv, sv := reflect.ValueOf(dst), reflect.ValueOf(src)
	switch dv.Kind() {
	case reflect.Slice:
		reflect.Copy(dv, sv)
	case reflect.Pointer:
		dv.Elem().Set(sv.Elem())
	default:
		panic(fmt.Sprintf("dataid: cannot copy %T", dst))
	}
}
