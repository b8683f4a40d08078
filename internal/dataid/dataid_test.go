package dataid

import (
	"reflect"
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
	if Key(p) != Key(p) {
		t.Fatal("pointer key unstable")
	}
	// The typed fast path and the reflective fallback name one address.
	for _, data := range []any{
		make([]float32, 2), make([]float64, 2), make([]int64, 2),
		make([]int32, 2), make([]int, 2), make([]byte, 2), make([]uint16, 2),
	} {
		if got, want := Key(data), reflect.ValueOf(data).Pointer(); got != want {
			t.Fatalf("Key(%T) = %#x, the backing array is at %#x", data, got, want)
		}
	}
}

func TestKeyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty slice":                         func() { Key([]float32{}) },
		"nil slice":                           func() { Key([]int64(nil)) },
		"empty slice of another element type": func() { Key([]uint16{}) },
		"nil pointer":                         func() { Key((*int)(nil)) },
		"non-data":                            func() { Key(42) },
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

// TestAllocCopyRoundTrip checks AllocLike + CopyInto reproduce contents
// for every fast-path type and the reflective fallbacks.
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
		fresh := AllocLike(ex)()
		CopyInto(fresh, ex)
		back := AllocLike(ex)()
		CopyInto(back, fresh)
		// Round-trip through two fresh instances must preserve contents;
		// compare via another copy into a string-able form is overkill —
		// rely on CopyInto symmetry by copying back onto the exemplar
		// type and checking a probe element where possible.
		switch v := back.(type) {
		case []float32:
			if v[0] != 1 || len(v) != 3 {
				t.Fatalf("float32 round trip: %v", v)
			}
		case []float64:
			if v[1] != 5 {
				t.Fatalf("float64 round trip: %v", v)
			}
		case []int64:
			if v[3] != 9 {
				t.Fatalf("int64 round trip: %v", v)
			}
		case []int32:
			if v[0] != 10 {
				t.Fatalf("int32 round trip: %v", v)
			}
		case []int:
			if v[1] != 12 {
				t.Fatalf("int round trip: %v", v)
			}
		case []byte:
			if v[2] != 15 {
				t.Fatalf("byte round trip: %v", v)
			}
		case []uint16:
			if v[1] != 17 {
				t.Fatalf("uint16 round trip: %v", v)
			}
		case *struct{ A, B int }:
			if v.A != 18 || v.B != 19 {
				t.Fatalf("pointer round trip: %+v", v)
			}
		default:
			t.Fatalf("unexpected round-trip type %T", back)
		}
	}
}

// TestAllocLikeIsFresh: allocations must never alias the exemplar.
func TestAllocLikeIsFresh(t *testing.T) {
	src := []float32{1, 2, 3}
	alloc := AllocLike(src)
	a := alloc().([]float32)
	b := alloc().([]float32)
	a[0] = 99
	if src[0] == 99 || b[0] == 99 {
		t.Fatal("AllocLike aliases storage")
	}
	if len(a) != len(src) {
		t.Fatalf("AllocLike length %d, want %d", len(a), len(src))
	}
}

func TestByteSize(t *testing.T) {
	cases := []struct {
		data any
		want int64
	}{
		{[]float32{0, 0}, 8},
		{[]float64{0}, 8},
		{[]int64{0, 0, 0}, 24},
		{[]int32{0}, 4},
		{[]byte{0, 0, 0, 0, 0}, 5},
		{[]uint16{0, 0}, 4},
		{new(int64), 8},
		{42, 0},
	}
	for _, c := range cases {
		if got := ByteSize(c.data); got != c.want {
			t.Fatalf("ByteSize(%T) = %d, want %d", c.data, got, c.want)
		}
	}
}

// TestCopyIntoQuick is the property-based check: for random []int64
// contents, AllocLike+CopyInto is the identity.
func TestCopyIntoQuick(t *testing.T) {
	property := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		dst := AllocLike(vals)().([]int64)
		CopyInto(dst, vals)
		for i := range vals {
			if dst[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
