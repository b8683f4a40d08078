// Package dataid provides the data-identity and storage-shape helpers
// shared by every runtime in this repository (the SMPSs runtime in
// internal/core and the related-work baseline runtimes in
// internal/supermatrix and internal/cellss).
//
// The 2008 SMPSs runtime keys its dependency analysis on parameter memory
// addresses and needs to allocate and copy instances of parameter storage
// for renaming; Key, AllocLike, ByteSize and CopyInto are the Go
// equivalents of that machinery.
package dataid

import (
	"fmt"
	"reflect"
	"unsafe"
)

// Key returns the dependency-analysis identity of a data argument: the
// base address of the slice's backing array, or the pointer value.  This
// mirrors the 2008 runtime, which keys its analysis on parameter memory
// addresses.  Every Submit asks for each of its data arguments, so the
// common slice element types bypass reflection.
func Key(data any) uintptr {
	switch d := data.(type) {
	case []float32:
		return sliceKey(d)
	case []float64:
		return sliceKey(d)
	case []int64:
		return sliceKey(d)
	case []int32:
		return sliceKey(d)
	case []int:
		return sliceKey(d)
	case []byte:
		return sliceKey(d)
	}
	switch v := reflect.ValueOf(data); v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			panic(emptySlice)
		}
		return v.Pointer()
	case reflect.Ptr:
		if v.IsNil() {
			panic("dataid: cannot track a nil pointer")
		}
		return v.Pointer()
	default:
		panic(fmt.Sprintf("dataid: data argument must be a slice or pointer, got %T", data))
	}
}

const emptySlice = "dataid: cannot track an empty slice (no address identity)"

func sliceKey[T any](s []T) uintptr {
	if len(s) == 0 {
		panic(emptySlice)
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(s)))
}

// AllocLike returns an allocator producing fresh storage with the same
// shape as data, used by the renaming engine.
func AllocLike(data any) func() any {
	switch d := data.(type) {
	case []float32:
		n := len(d)
		return func() any { return make([]float32, n) }
	case []float64:
		n := len(d)
		return func() any { return make([]float64, n) }
	case []int64:
		n := len(d)
		return func() any { return make([]int64, n) }
	case []int32:
		n := len(d)
		return func() any { return make([]int32, n) }
	case []int:
		n := len(d)
		return func() any { return make([]int, n) }
	case []byte:
		n := len(d)
		return func() any { return make([]byte, n) }
	}
	v := reflect.ValueOf(data)
	switch v.Kind() {
	case reflect.Slice:
		t, n := v.Type(), v.Len()
		return func() any { return reflect.MakeSlice(t, n, n).Interface() }
	case reflect.Ptr:
		t := v.Type().Elem()
		return func() any { return reflect.New(t).Interface() }
	default:
		panic(fmt.Sprintf("dataid: cannot allocate like %T", data))
	}
}

// ByteSize returns the storage footprint of a data argument, used to
// account renamed memory against a runtime's memory limit.
func ByteSize(data any) int64 {
	switch d := data.(type) {
	case []float32:
		return int64(len(d)) * 4
	case []float64:
		return int64(len(d)) * 8
	case []int64:
		return int64(len(d)) * 8
	case []int32:
		return int64(len(d)) * 4
	case []byte:
		return int64(len(d))
	}
	v := reflect.ValueOf(data)
	switch v.Kind() {
	case reflect.Slice:
		return int64(v.Len()) * int64(v.Type().Elem().Size())
	case reflect.Ptr:
		return int64(v.Type().Elem().Size())
	default:
		return 0
	}
}

// CopyInto copies src's contents into dst; both must have the shape
// produced by AllocLike for the same exemplar.
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
	case reflect.Ptr:
		dv.Elem().Set(sv.Elem())
	default:
		panic(fmt.Sprintf("dataid: cannot copy %T", dst))
	}
}
