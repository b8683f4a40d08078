package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is the outcome of comparing one workload × metric row.
type verdict string

const (
	worse      verdict = "worse"
	same       verdict = "same"
	better     verdict = "better"
	unresolved verdict = "unresolved"
)

// judge applies one metric's bound to a baseline and a candidate.
// change is how much worse the candidate's median is, as a share of the
// baseline's (negative when it is better).  A change beyond the bound
// counts only if it also exceeds the spread of the noisier side; within
// the bound, a spread wider than the bound means the runs could not have
// shown a regression of that size, so the row is unresolved, not same.
func judge(cm contractMetric, a, b metric) (v verdict, change, spread float64) {
	change = (b.Value - a.Value) / math.Abs(a.Value)
	if cm.Better == "higher" {
		change = -change
	}
	if a.Samples != nil && b.Samples != nil {
		spread = math.Max(a.Samples.spread(), b.Samples.spread())
	}
	switch {
	case change > cm.Bound && change > spread:
		return worse, change, spread
	case -change > cm.Bound && -change > spread:
		return better, change, spread
	case spread > cm.Bound:
		return unresolved, change, spread
	}
	return same, change, spread
}

// compareReports prints one row per workload × end-to-end metric present
// in both reports and says whether any row is worse.
func compareReports(w io.Writer, contractPath, pathA, pathB string) (anyWorse bool, err error) {
	var c contract
	var a, b report
	for path, v := range map[string]any{contractPath: &c, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if a.Host.GOMAXPROCS != b.Host.GOMAXPROCS || a.Host.Provider != b.Host.Provider {
		fmt.Fprintf(w, "warning: reports differ in gomaxprocs (%d, %d) or provider (%s, %s)\n",
			a.Host.GOMAXPROCS, b.Host.GOMAXPROCS, a.Host.Provider, b.Host.Provider)
	}
	inB := map[string]workloadReport{}
	for _, r := range b.EndToEnd {
		inB[r.Name] = r
	}
	rows := 0
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "change", "spread", "bound", "verdict")
	for _, ra := range a.EndToEnd {
		rb, ok := inB[ra.Name]
		if !ok {
			continue
		}
		if rb.OpsFailed > ra.OpsFailed {
			fmt.Fprintf(w, "%-18s ops_failed rose from %d to %d: worse\n", ra.Name, ra.OpsFailed, rb.OpsFailed)
			anyWorse = true
		}
		for _, cm := range c.EndToEnd {
			ma, okA := ra.Metrics[cm.Name]
			mb, okB := rb.Metrics[cm.Name]
			if !okA || !okB {
				continue
			}
			v, change, spread := judge(cm, ma, mb)
			fmt.Fprintf(w, "%-18s %-22s %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				ra.Name, cm.Name, ma.Value, mb.Value, 100*change, 100*spread, 100*cm.Bound, v)
			anyWorse = anyWorse || v == worse
			rows++
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("%s and %s share no workload with end-to-end metrics", pathA, pathB)
	}
	return anyWorse, nil
}
