package main

import (
	"math"
	"sort"
)

// summary is the reported form of one metric's samples: the median, the
// quartiles (their distance is the spread -compare uses) and the highest
// percentile the sample count supports.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Hi is the value at percentile HiPct, the highest rung of the
	// ladder with at least ten samples beyond it (p75 for 41 samples).
	Hi    float64 `json:"hi"`
	HiPct float64 `json:"hi_pct"`
}

// percentileLadder lists the percentiles a tail may be reported at.
var percentileLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highPercentile returns the highest rung of percentileLadder that
// leaves at least minBeyond of n samples strictly beyond it, or 50 when
// not even the median does.
func highPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps 99.9 % of 10000 at 9990 despite 99.9 not being
	// exactly representable.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median returns the middle sample, or the mean of the two middle
// samples for an even count.
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// summarize reduces samples (at least one) to a summary.
func summarize(samples []float64) summary {
	s := sortedCopy(samples)
	hi := highPercentile(len(s))
	return summary{
		N:      len(s),
		Median: median(s),
		Q1:     percentile(s, 25),
		Q3:     percentile(s, 75),
		Hi:     percentile(s, hi),
		HiPct:  hi,
	}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}
