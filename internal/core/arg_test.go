package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// valueCase is one Value argument and what the accessors must make of it.
type valueCase struct {
	arg  Arg
	want any // Args.Value: the value with the type it was passed as
	// Int and Int64 return i64 unless the value is a float or an unsigned
	// integer no int64 holds; Float returns f64 for a float.
	float, overflow bool
	i64             int64
	f64             float64
}

func intCase[T integer](v T) valueCase {
	return valueCase{arg: Value(v), want: v, i64: int64(v), overflow: T(0)-1 > 0 && uint64(v) > math.MaxInt64}
}

func floatCase[T float](v T) valueCase {
	return valueCase{arg: Value(v), want: v, float: true, f64: float64(v)}
}

// panicMessage runs f and returns what it panicked with, "" if it did not.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(string)
		}
	}()
	f()
	return ""
}

// TestValueAccessors: every integer and float kind Value accepts comes
// back from Value with its type, from Int/Int64/Float with its value, and
// a read of the wrong kind panics naming the definition and the index.
func TestValueAccessors(t *testing.T) {
	type celsius float32
	type id uint16
	cases := []valueCase{
		intCase(int(-7)), intCase(1 << 40), intCase(int8(-128)), intCase(int16(-300)),
		intCase(int32(math.MinInt32)), intCase(int64(math.MinInt64)), intCase(int64(1)<<33 + 1),
		intCase(uint(1) << 40), intCase(uint8(255)), intCase(uint16(65535)), intCase(uint32(math.MaxUint32)),
		intCase(uint64(1) << 62), intCase(uint64(math.MaxUint64)), intCase(uintptr(1) << 35),
		intCase(id(9)),
		floatCase(float32(0.1)), floatCase(float32(-math.MaxFloat32)), floatCase(2.5), floatCase(-1e300),
		floatCase(celsius(36.6)),
	}
	args := make([]Arg, len(cases))
	for i, c := range cases {
		args[i] = c.arg
	}
	probe := NewTaskDef("probe_t", func(a *Args) {
		for i, c := range cases {
			if got := a.Value(i); got != c.want {
				t.Errorf("Value(%d) = %T(%v), want %T(%v)", i, got, got, c.want, c.want)
			}
			refuses := func(name string, read func()) {
				if msg := panicMessage(read); !strings.Contains(msg, fmt.Sprintf("argument %d of probe_t", i)) {
					t.Errorf("%T(%v): %s(%d) panicked with %q", c.want, c.want, name, i, msg)
				}
			}
			if c.float {
				if got := a.Float(i); got != c.f64 {
					t.Errorf("%T: Float(%d) = %v, want %v", c.want, i, got, c.f64)
				}
			} else {
				refuses("Float", func() { a.Float(i) })
			}
			if c.float || c.overflow {
				refuses("Int", func() { a.Int(i) })
				refuses("Int64", func() { a.Int64(i) })
				continue
			}
			if got := a.Int64(i); got != c.i64 {
				t.Errorf("%T: Int64(%d) = %d, want %d", c.want, i, got, c.i64)
			}
			if got := a.Int(i); got != int(c.i64) {
				t.Errorf("%T: Int(%d) = %d, want %d", c.want, i, got, int(c.i64))
			}
		}
	})
	rt := newRT(t, 1)
	defer rt.Close()
	rt.Submit(probe, args...)
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestAccessorMismatches: reading an argument as a kind it is not, or
// one the task does not have, panics with the definition and the index,
// and the panic reaches the program as the task's failure.
func TestAccessorMismatches(t *testing.T) {
	x := []float32{1}
	reads := map[string]func(a *Args){
		"Data of a value":     func(a *Args) { a.Data(1) },
		"F32 of an opaque":    func(a *Args) { a.F32(2) },
		"Value of data":       func(a *Args) { a.Value(0) },
		"Int of an opaque":    func(a *Args) { a.Int(2) },
		"Opaque of a value":   func(a *Args) { a.Opaque(1) },
		"Opaque of data":      func(a *Args) { a.Opaque(0) },
		"Int past the end":    func(a *Args) { a.Int(3) },
		"Data below zero":     func(a *Args) { a.Data(-1) },
		"Float of an int":     func(a *Args) { a.Float(1) },
		"Opaque past the end": func(a *Args) { a.Opaque(7) },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			rt := New(Config{Workers: 1})
			rt.Submit(NewTaskDef("mismatch_t", read), In(x), Value(3), Opaque("o"))
			err := rt.Close()
			if err == nil {
				t.Fatal("the read did not fail the task")
			}
			if msg := err.Error(); !strings.Contains(msg, "mismatch_t") || !strings.Contains(msg, "argument") {
				t.Fatalf("failure %q does not name the definition and the argument", msg)
			}
		})
	}
}

// TestObjectIdentityIsTheBaseAddress: an object is its base address, and
// a body receives the instance registered when the runtime first saw
// that address, whatever length a later call site names.  So x and a
// prefix of x, both as whole-object arguments, are one object: the second
// task waits for the first and sees all of x.  Neither call allocates.
func TestObjectIdentityIsTheBaseAddress(t *testing.T) {
	const n = 64
	x := make([]int64, n)
	var order []int
	var seen [2]int
	def := NewTaskDef("ident_t", func(a *Args) {
		which := a.Int(1)
		order = append(order, which)
		seen[which] = len(a.I64(0))
		a.I64(0)[0]++
	})
	rt := New(Config{Workers: 1})
	defer rt.Close()
	c := rt.Context()
	pair := func() {
		submitOK(t, c, def, InOut(x), Value(0))
		submitOK(t, c, def, InOut(x[:n/2]), Value(1))
	}
	for i := 0; i < 4; i++ { // registers x, fills the free lists
		pair()
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	before := rt.Stats()
	order = order[:0]
	if allocs := testing.AllocsPerRun(1, pair); allocs != 0 {
		t.Errorf("the two Submits allocate %v times, want 0", allocs)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	after := rt.Stats()
	// AllocsPerRun runs the pair twice (one warm-up): four tasks, and each
	// one reads what the one before it wrote.
	if d := after.Deps.TrueEdges - before.Deps.TrueEdges; d != 4 {
		t.Errorf("true dependencies = %d, want 4: the prefix must be the same object", d)
	}
	if d := after.Deps.Objects - before.Deps.Objects; d != 0 {
		t.Errorf("%d new objects registered, want 0", d)
	}
	if want := []int{0, 1, 0, 1}; len(order) != 4 || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("execution order %v, want %v", order, want)
	}
	if seen != [2]int{n, n} {
		t.Errorf("bodies saw lengths %v, want both %d: the instance registered first", seen, n)
	}
	if x[0] != 12 {
		t.Errorf("x[0] = %d, want 12", x[0])
	}
}
