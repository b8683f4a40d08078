package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// spanName identifies the layer boundary a span was recorded at.  Spans
// are taken in this package only, around calls into the runtime's
// packages and around task bodies the benchmark owns.
type spanName uint8

const (
	spanRep        spanName = iota // one repetition: first Submit → Barrier returned
	spanSubmitLoop                 // the benchmark's own submission loop (chain/fanout/churn)
	spanSubmit                     // one Context.Submit call, or the app driver call (workloads 1–3)
	spanBarrier                    // the Barrier after the last submit
	spanBody                       // one task body the benchmark owns
	spanGemm                       // kernels.Provider calls inside task bodies
	spanSyrk
	spanTrsm
	spanPotrf
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"rep", "core.submit_loop", "core.submit", "core.barrier", "task.body",
	"kernels.gemm", "kernels.syrk", "kernels.trsm", "kernels.potrf",
}

// span is one recorded interval; Rep is the repetition that caused it.
type span struct {
	Name  spanName
	Rep   int32
	Start int64 // ns since the tracer's base
	End   int64
}

// maxStoredSpans bounds the spans kept for trace.json.  The null-task
// workloads produce half a million spans per repetition; the totals per
// name stay exact past the bound, only the individual spans are dropped.
const maxStoredSpans = 1 << 16

// tracer records spans into a preallocated buffer plus exact per-name
// totals.  A nil *tracer is the untraced pass: begin and end do nothing
// and never read the clock.
type tracer struct {
	base  time.Time
	rep   int32 // written by the submitter between repetitions only
	spans []span
	next  atomic.Int64
	agg   [numSpanNames]struct{ count, ns atomic.Int64 }
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, maxStoredSpans)}
}

// begin returns the start timestamp of a span.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// end closes the span opened at start.  Safe from any goroutine.
func (t *tracer) end(name spanName, start int64) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.base))
	t.agg[name].count.Add(1)
	t.agg[name].ns.Add(end - start)
	if t.next.Load() < maxStoredSpans {
		if i := t.next.Add(1) - 1; i < maxStoredSpans {
			t.spans[i] = span{Name: name, Rep: t.rep, Start: start, End: end}
		}
	}
}

// total returns the exact summed duration and count of a span name.
func (t *tracer) total(name spanName) (ns, count int64) {
	return t.agg[name].ns.Load(), t.agg[name].count.Load()
}

// stored returns the spans kept in the buffer.
func (t *tracer) stored() []span {
	n := t.next.Load()
	if n > maxStoredSpans {
		n = maxStoredSpans
	}
	return t.spans[:n]
}

// selfTime is a span's duration minus the part of its interval that the
// child spans cover.  Children may overlap each other (task bodies run
// in parallel) and may stick out of the parent; only their union inside
// the parent counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), parent.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return parent.End - parent.Start - covered
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Totals   []spanTotal `json:"totals"`
	// RepSelfNs is, per stored repetition, the time no recorded child
	// span covers (harness gaps and unwrapped runtime work).
	RepSelfNs []int64     `json:"rep_self_ns"`
	Dropped   int64       `json:"dropped_spans"`
	Spans     []traceSpan `json:"spans"`
}

type spanTotal struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

type traceSpan struct {
	Name    string `json:"name"`
	Rep     int32  `json:"rep"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// file renders the tracer for writing; called only after the pass ended.
func (t *tracer) file(workload string, seed int64) traceFile {
	f := traceFile{Workload: workload, Seed: seed}
	var recorded int64
	for n := spanName(0); n < numSpanNames; n++ {
		ns, count := t.total(n)
		recorded += count
		if count > 0 {
			f.Totals = append(f.Totals, spanTotal{spanNames[n], count, ns})
		}
	}
	stored := t.stored()
	f.Dropped = recorded - int64(len(stored))
	byRep := map[int32][]span{}
	for _, s := range stored {
		f.Spans = append(f.Spans, traceSpan{spanNames[s.Name], s.Rep, s.Start, s.End})
		if s.Name != spanRep {
			byRep[s.Rep] = append(byRep[s.Rep], s)
		}
	}
	for _, s := range stored {
		if s.Name == spanRep {
			f.RepSelfNs = append(f.RepSelfNs, selfTime(s, byRep[s.Rep]))
		}
	}
	return f
}
