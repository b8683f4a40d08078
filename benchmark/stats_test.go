package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 9, 1, 1, 5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The reported tail is the highest percentile with at least ten samples
// strictly beyond it: p75 for the benchmark's 41 repetitions.
func TestHighPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {41, 75},
		{99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got := highPercentile(c.n); got > 50 && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("highPercentile(%d) = %v leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 41)
	for i := range samples {
		samples[i] = float64(41 - i) // 41..1, unsorted on purpose
	}
	s := summarize(samples)
	if s.N != 41 || s.Median != 21 || s.HiPct != 75 {
		t.Fatalf("summarize: %+v", s)
	}
	// Nearest rank: p75 of 41 is the 31st smallest, ten lie beyond it.
	if s.Hi != 31 || s.Q3 != 31 || s.Q1 != 11 {
		t.Errorf("quartiles: %+v", s)
	}
	if got, want := s.spread(), 20.0/21; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
