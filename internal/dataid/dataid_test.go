package dataid

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestKeyIdentity(t *testing.T) {
	a := make([]float32, 8)
	b := make([]float32, 8)
	if Key(a) == Key(b) {
		t.Fatal("distinct slices share a key")
	}
	if Key(a) != Key(a[:4]) {
		t.Fatal("a slice and its prefix must share the base-address key")
	}
	p := new(int)
	q := new(int)
	if Key(p) == Key(q) {
		t.Fatal("distinct pointers share a key")
	}
	if Key(p) != Pointer(p).Key() {
		t.Fatal("the boxed and the unboxed pointer name two addresses")
	}
	// The boxed and the unboxed reference name one address.
	for _, data := range []any{
		make([]float32, 2), make([]float64, 2), make([]int64, 2),
		make([]int32, 2), make([]int, 2), make([]byte, 2), make([]uint16, 2),
	} {
		if got, want := Key(data), reflect.ValueOf(data).Pointer(); got != want {
			t.Fatalf("Key(%T) = %#x, the backing array is at %#x", data, got, want)
		}
	}
	if Slice(a).Key() != Key(a) {
		t.Fatal("Slice(a) and Of(a) name two addresses")
	}
}

func TestKeyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty slice":                         func() { Key([]float32{}) },
		"nil slice":                           func() { Key([]int64(nil)) },
		"empty slice of another element type": func() { Key([]uint16{}) },
		"nil pointer":                         func() { Key((*int)(nil)) },
		"non-data":                            func() { Key(42) },
		"nil":                                 func() { Key(nil) },
		"unboxed empty slice":                 func() { Slice([]float32{}).Key() },
		"unboxed nil pointer":                 func() { Pointer[int](nil).Key() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Key did not panic", name)
				}
			}()
			f()
		}()
	}
}

type pair struct {
	A, B int
	P    *int
}

// TestBoxRoundTrip pins the interface layout the package relies on: a
// Ref built without an `any` boxes into exactly the value the program
// named — dynamic type, address, length — for the typed fast paths, the
// reflective fallbacks and pointers, the box survives a collection, and
// Of takes it apart again.
func TestBoxRoundTrip(t *testing.T) {
	f32 := []float32{1, 2, 3}
	u16 := []uint16{4, 5}
	prs := []pair{{A: 6, P: new(int)}, {B: 7}}
	pp := &pair{A: 8, B: 9}
	i64 := new(int64)
	cases := []struct {
		ref  Ref
		want any
	}{
		{Slice(f32), f32},
		{Slice(f32[:2]), f32[:2]},
		{Slice(u16), u16},
		{Slice(prs), prs},
		{Pointer(pp), pp},
		{Pointer(i64), i64},
	}
	for _, c := range cases {
		got := c.ref.Box()
		runtime.GC()
		if reflect.TypeOf(got) != reflect.TypeOf(c.want) {
			t.Fatalf("Box() is a %T, want %T", got, c.want)
		}
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(c.want)
		if gv.Pointer() != wv.Pointer() {
			t.Fatalf("%T: Box() points at %#x, want %#x", c.want, gv.Pointer(), wv.Pointer())
		}
		if gv.Kind() == reflect.Slice && (gv.Len() != wv.Len() || gv.Cap() != wv.Len()) {
			t.Fatalf("%T: Box() has len %d cap %d, want both %d", c.want, gv.Len(), gv.Cap(), wv.Len())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Box() = %v, want %v", got, c.want)
		}
		if Of(got) != c.ref || Of(c.want) != c.ref {
			t.Fatalf("%T: Of(Box()) = %+v, Of(data) = %+v, want %+v", c.want, Of(got), Of(c.want), c.ref)
		}
	}
	if Slice(f32).Shape() != Slice([]float32{7, 8, 9}).Shape() || Slice(f32).Shape() == Slice(f32[:2]).Shape() {
		t.Fatal("Shape must compare type and length and nothing else")
	}
}

func TestBoxAllocations(t *testing.T) {
	x := make([]int64, 4)
	p := new(int64)
	var r Ref
	if n := testing.AllocsPerRun(100, func() { r = Slice(x); r = Pointer(p) }); n != 0 {
		t.Fatalf("building a Ref allocates %v times, want 0", n)
	}
	var box any
	if n := testing.AllocsPerRun(100, func() { box = Slice(x).Box() }); n != 1 {
		t.Fatalf("boxing a slice allocates %v times, want 1 (its header)", n)
	}
	if n := testing.AllocsPerRun(100, func() { box = Pointer(p).Box() }); n != 0 {
		t.Fatalf("boxing a pointer allocates %v times, want 0", n)
	}
	_, _ = r, box
}

// TestSplitAny: any value survives being carried as two words.
func TestSplitAny(t *testing.T) {
	for _, v := range []any{nil, 7, 1 << 40, "s", 2.5, []int{1, 2}, &pair{A: 1}, pair{B: 2}, struct{}{}} {
		r := Split(v)
		runtime.GC()
		if got := r.Any(); !reflect.DeepEqual(got, v) {
			t.Fatalf("Split(%#v).Any() = %#v", v, got)
		}
	}
	v := any(1 << 40)
	if n := testing.AllocsPerRun(100, func() { v = Split(v).Any() }); n != 0 {
		t.Fatalf("Split+Any allocates %v times, want 0", n)
	}
	w := Word[int16](1<<63 | 5)
	if got := w.Word(); got != 1<<63|5 {
		t.Fatalf("Word round trip = %#x", got)
	}
	if p, ok := w.Any().(*int16); !ok || p != nil {
		t.Fatalf("Word[int16]().Any() = %#v, want (*int16)(nil)", w.Any())
	}
}

// TestAllocCopyRoundTrip checks Alloc + CopyInto reproduce contents for
// every fast-path type and the reflective fallbacks.
func TestAllocCopyRoundTrip(t *testing.T) {
	exemplars := []any{
		[]float32{1, 2, 3},
		[]float64{4, 5},
		[]int64{6, 7, 8, 9},
		[]int32{10},
		[]int{11, 12},
		[]byte{13, 14, 15},
		[]uint16{16, 17},            // reflective slice fallback
		&struct{ A, B int }{18, 19}, // reflective pointer fallback
	}
	for _, ex := range exemplars {
		fresh := Of(ex).Alloc()
		if reflect.TypeOf(fresh) != reflect.TypeOf(ex) || Of(fresh).Shape() != Of(ex).Shape() {
			t.Fatalf("Alloc of %T made a %T of another shape", ex, fresh)
		}
		if Key(fresh) == Key(ex) {
			t.Fatalf("Alloc of %T aliases the exemplar", ex)
		}
		CopyInto(fresh, ex)
		back := Of(ex).Alloc()
		CopyInto(back, fresh)
		if !reflect.DeepEqual(back, ex) {
			t.Fatalf("%T round trip: %v, want %v", ex, back, ex)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := []struct {
		data any
		want int64
	}{
		{[]float32{0, 0}, 8},
		{[]float64{0}, 8},
		{[]int64{0, 0, 0}, 24},
		{[]int32{0}, 4},
		{[]int{0, 0}, 2 * int64(reflect.TypeOf(0).Size())},
		{[]byte{0, 0, 0, 0, 0}, 5},
		{[]uint16{0, 0}, 4},
		{new(int64), 8},
		{&pair{}, int64(reflect.TypeOf(pair{}).Size())},
	}
	for _, c := range cases {
		if got := Of(c.data).Bytes(); got != c.want {
			t.Fatalf("Bytes of %T = %d, want %d", c.data, got, c.want)
		}
	}
}

// TestCopyIntoQuick is the property-based check: for random []int64
// contents, Alloc+CopyInto is the identity.
func TestCopyIntoQuick(t *testing.T) {
	property := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		dst := Slice(vals).Alloc().([]int64)
		CopyInto(dst, vals)
		return reflect.DeepEqual(dst, vals)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
