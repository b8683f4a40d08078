package deps

import (
	"testing"
	"testing/quick"
)

func TestIntervalSpanRect(t *testing.T) {
	i := Interval(3, 7)
	if lo, hi := i.Bounds(0); i.Dims() != 1 || lo != 3 || hi != 7 {
		t.Fatalf("Interval = %+v", i)
	}
	if s := Span(3, 5); s != i { // {3:5} → 3..7
		t.Fatalf("Span = %+v", s)
	}
	r := Rect(0, 1, 10, 20)
	if lo, hi := r.Bounds(1); r.Dims() != 2 || lo != 10 || hi != 20 {
		t.Fatalf("Rect = %+v", r)
	}
	// Dimensions past MaxDims are covered entirely: the region is the
	// rectangle of its first MaxDims.
	if r := Rect(0, 1, 2, 3, 4, 5, 6, 7); r != Rect(0, 1, 2, 3, 4, 5) {
		t.Fatalf("Rect beyond MaxDims = %+v", r)
	}
}

// TestRegionsAllocateNothing: a region is a value.
func TestRegionsAllocateNothing(t *testing.T) {
	var sink bool
	lo := int64(3)
	if n := testing.AllocsPerRun(100, func() {
		a, b, c := Interval(lo, lo+4), Span(lo, 5), Rect(0, lo, 1, lo+1)
		sink = a.Overlaps(b) && c.Contains(Rect(0, 1, 1, 2)) && !Full.Empty()
		lo++
	}); n != 0 {
		t.Fatalf("building and comparing regions allocates %v times, want 0", n)
	}
	_ = sink
}

func TestRectPanicsOnOddBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Rect with odd bounds did not panic")
		}
	}()
	Rect(1, 2, 3)
}

func TestFullRegion(t *testing.T) {
	if !Full.IsFull() {
		t.Fatalf("Full.IsFull() = false")
	}
	if Full.Empty() {
		t.Fatalf("Full.Empty() = true")
	}
	if !Full.Overlaps(Interval(5, 9)) || !Interval(5, 9).Overlaps(Full) {
		t.Fatalf("full region must overlap any non-empty region")
	}
	if !Full.Contains(Interval(0, 100)) {
		t.Fatalf("full region must contain any region")
	}
	if Interval(0, 100).Contains(Full) {
		t.Fatalf("interval must not contain the full region")
	}
}

func TestEmptyRegionNeverOverlaps(t *testing.T) {
	e := Interval(5, 2)
	if !e.Empty() {
		t.Fatalf("Hi<Lo region should be empty")
	}
	if e.Overlaps(Full) || Full.Overlaps(e) || e.Overlaps(Interval(0, 10)) {
		t.Fatalf("empty region must overlap nothing")
	}
}

func TestIntervalOverlap(t *testing.T) {
	cases := []struct {
		a, b Region
		want bool
	}{
		{Interval(0, 4), Interval(5, 9), false},
		{Interval(0, 4), Interval(4, 9), true}, // inclusive bounds touch
		{Interval(0, 9), Interval(3, 5), true},
		{Interval(3, 5), Interval(0, 9), true},
		{Interval(10, 20), Interval(0, 9), false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestRectOverlap(t *testing.T) {
	a := Rect(0, 5, 0, 5)
	if !a.Overlaps(Rect(5, 9, 5, 9)) {
		t.Fatalf("corner-touching rects must overlap (inclusive bounds)")
	}
	if a.Overlaps(Rect(6, 9, 0, 5)) {
		t.Fatalf("rects disjoint in dim 0 must not overlap")
	}
	if a.Overlaps(Rect(0, 5, 6, 9)) {
		t.Fatalf("rects disjoint in dim 1 must not overlap")
	}
}

func TestMismatchedDimsConservative(t *testing.T) {
	if !Interval(0, 1).Overlaps(Rect(100, 200, 100, 200)) {
		t.Fatalf("mismatched dims must conservatively overlap")
	}
	if Interval(0, 10).Contains(Rect(1, 2, 1, 2)) {
		t.Fatalf("mismatched dims must conservatively not contain")
	}
}

func TestContains(t *testing.T) {
	if !Interval(0, 10).Contains(Interval(3, 5)) {
		t.Fatalf("0..10 should contain 3..5")
	}
	if Interval(3, 5).Contains(Interval(0, 10)) {
		t.Fatalf("3..5 should not contain 0..10")
	}
	if !Rect(0, 9, 0, 9).Contains(Rect(1, 2, 3, 4)) {
		t.Fatalf("rect containment failed")
	}
}

func TestOverlapSymmetryProperty(t *testing.T) {
	f := func(a0, a1, b0, b1 int16) bool {
		a := Interval(int64(min16(a0, a1)), int64(max16(a0, a1)))
		b := Interval(int64(min16(b0, b1)), int64(max16(b0, b1)))
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsImpliesOverlapProperty(t *testing.T) {
	f := func(a0, a1, b0, b1 int16) bool {
		a := Interval(int64(min16(a0, a1)), int64(max16(a0, a1)))
		b := Interval(int64(min16(b0, b1)), int64(max16(b0, b1)))
		if a.Contains(b) {
			return a.Overlaps(b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapMatchesBruteForceProperty(t *testing.T) {
	// Compare interval overlap against element-by-element brute force on
	// a small universe.
	f := func(a0, a1, b0, b1 uint8) bool {
		al, ah := int64(a0%32), int64(a1%32)
		bl, bh := int64(b0%32), int64(b1%32)
		if ah < al {
			al, ah = ah, al
		}
		if bh < bl {
			bl, bh = bh, bl
		}
		a, b := Interval(al, ah), Interval(bl, bh)
		brute := false
		for x := int64(0); x < 32; x++ {
			if x >= al && x <= ah && x >= bl && x <= bh {
				brute = true
				break
			}
		}
		return a.Overlaps(b) == brute
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min16(a, b int16) int16 {
	if a < b {
		return a
	}
	return b
}

func max16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}

func TestModeStrings(t *testing.T) {
	if ModeIn.String() != "input" || ModeOut.String() != "output" || ModeInOut.String() != "inout" {
		t.Fatalf("mode strings wrong: %v %v %v", ModeIn, ModeOut, ModeInOut)
	}
	if Mode(7).String() != "mode(?)" {
		t.Fatalf("unknown mode string: %v", Mode(7))
	}
	if ModeIn.Writes() || !ModeIn.Reads() {
		t.Fatalf("ModeIn directionality wrong")
	}
	if !ModeOut.Writes() || ModeOut.Reads() {
		t.Fatalf("ModeOut directionality wrong")
	}
	if !ModeInOut.Writes() || !ModeInOut.Reads() {
		t.Fatalf("ModeInOut directionality wrong")
	}
}
