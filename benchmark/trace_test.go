package main

import "testing"

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 160, End: 170}, {Start: 110, End: 120}}, 80},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested child adds nothing", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children clipped to the parent", []span{{Start: 50, End: 110}, {Start: 190, End: 400}}, 80},
		{"child outside the parent", []span{{Start: 300, End: 400}}, 100},
		{"fully covered", []span{{Start: 0, End: 150}, {Start: 150, End: 300}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerTotalsStayExactPastTheBuffer(t *testing.T) {
	tr := newTracer()
	const n = maxStoredSpans + 100
	for i := 0; i < n; i++ {
		tr.end(spanBody, tr.begin())
	}
	if _, count := tr.total(spanBody); count != n {
		t.Errorf("count = %d, want %d", count, n)
	}
	if got := len(tr.stored()); got != maxStoredSpans {
		t.Errorf("stored %d spans, want %d", got, maxStoredSpans)
	}
	if f := tr.file("w", 1); f.Dropped != 100 {
		t.Errorf("dropped = %d, want 100", f.Dropped)
	}
	var none *tracer
	none.end(spanBody, none.begin()) // the untraced pass: must not panic
}
