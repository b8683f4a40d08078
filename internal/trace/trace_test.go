package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, EvStart, 1, "x", 1) // must not panic
	if tr.Events() != nil {
		t.Fatalf("nil tracer must have no events")
	}
}

func TestEventsSortedByTime(t *testing.T) {
	tr := New()
	tr.Emit(1, EvStart, 0, "a", 1)
	tr.Emit(0, EvStart, 0, "b", 2)
	tr.Emit(1, EvEnd, 0, "a", 1)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].When < evs[i-1].When {
			t.Fatalf("events not sorted")
		}
	}
}

func TestSummarizePairsStartEnd(t *testing.T) {
	tr := New()
	tr.Emit(0, EvCreate, 0, "gemm", 1)
	tr.Emit(1, EvStart, 0, "gemm", 1)
	tr.Emit(1, EvEnd, 0, "gemm", 1)
	tr.Emit(2, EvStart, 1, "potrf", 2)
	tr.Emit(2, EvEnd, 1, "potrf", 2)
	tr.Emit(1, EvStart, 0, "gemm", 3)
	tr.Emit(1, EvEnd, 0, "gemm", 3)
	tr.Emit(0, EvRename, 0, "gemm", 4)

	sum := tr.Summarize()
	if sum.Renames != 1 {
		t.Fatalf("renames = %d, want 1", sum.Renames)
	}
	if sum.Created != 1 {
		t.Fatalf("created = %d, want 1", sum.Created)
	}
	if len(sum.Kinds) != 2 {
		t.Fatalf("kinds = %+v", sum.Kinds)
	}
	// Sorted by label: gemm before potrf.
	if sum.Kinds[0].Label != "gemm" || sum.Kinds[0].Count != 2 {
		t.Fatalf("gemm summary = %+v", sum.Kinds[0])
	}
	if sum.Kinds[1].Label != "potrf" || sum.Kinds[1].Count != 1 {
		t.Fatalf("potrf summary = %+v", sum.Kinds[1])
	}
	if len(sum.Workers) != 2 {
		t.Fatalf("workers = %+v", sum.Workers)
	}
	if sum.Workers[0].Worker != 1 || sum.Workers[0].Tasks != 2 {
		t.Fatalf("worker 1 summary = %+v", sum.Workers[0])
	}
	if sum.Kinds[0].Mean <= 0 {
		t.Fatalf("mean must be positive")
	}
}

func TestSummarizeIgnoresUnpairedEnd(t *testing.T) {
	tr := New()
	tr.Emit(0, EvEnd, 0, "x", 1) // end without start
	sum := tr.Summarize()
	if len(sum.Kinds) != 0 {
		t.Fatalf("unpaired end must not create a kind: %+v", sum.Kinds)
	}
}

func TestEmptySummary(t *testing.T) {
	tr := New()
	sum := tr.Summarize()
	if sum.Span != 0 || len(sum.Kinds) != 0 || len(sum.Workers) != 0 {
		t.Fatalf("empty summary = %+v", sum)
	}
}

func TestWritePRVFormat(t *testing.T) {
	tr := New()
	tr.Emit(0, EvCreate, 2, "gemm", 1)
	tr.Emit(1, EvStart, 2, "gemm", 1)
	tr.Emit(1, EvEnd, 2, "gemm", 1)
	tr.Emit(0, EvBarrier, -1, "", 0)
	tr.Emit(0, EvBarrierDone, -1, "", 0)
	tr.Emit(0, EvRename, 2, "gemm", 2)

	var sb strings.Builder
	if err := tr.WritePRV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.HasPrefix(lines[0], "#Paraver") {
		t.Fatalf("missing Paraver header: %q", lines[0])
	}
	if len(lines) != 7 { // header + 6 event records
		t.Fatalf("got %d lines, want 7:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "2:") {
			t.Fatalf("event record must start with '2:': %q", l)
		}
		if len(strings.Split(l, ":")) != 8 {
			t.Fatalf("event record must have 8 fields: %q", l)
		}
	}
	// Task-kind event value is kind+1 at start.
	if !strings.Contains(out, ":90000001:3") {
		t.Fatalf("start record missing kind value:\n%s", out)
	}
	// End record resets to 0.
	if !strings.Contains(out, ":90000001:0") {
		t.Fatalf("end record missing zero value:\n%s", out)
	}
}

func TestConcurrentEmit(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(w, EvStart, 0, "k", int64(i))
				tr.Emit(w, EvEnd, 0, "k", int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Events()); got != 8000 {
		t.Fatalf("got %d events, want 8000", got)
	}
	sum := tr.Summarize()
	total := 0
	for _, k := range sum.Kinds {
		total += k.Count
	}
	if total != 4000 {
		t.Fatalf("paired %d executions, want 4000", total)
	}
}

func TestEventTypeStrings(t *testing.T) {
	want := map[EventType]string{
		EvCreate: "create", EvStart: "start", EvEnd: "end",
		EvRename: "rename", EvBarrier: "barrier", EvBarrierDone: "barrier_done",
		EventType(200): "event(200)",
	}
	for ev, s := range want {
		if ev.String() != s {
			t.Fatalf("%d.String() = %q, want %q", ev, ev.String(), s)
		}
	}
}

func TestWritePCF(t *testing.T) {
	tr := New()
	tr.Emit(1, EvStart, 2, "gemm", 1)
	tr.Emit(1, EvEnd, 2, "gemm", 1)
	tr.Emit(1, EvStart, 5, "potrf", 2)
	tr.Emit(1, EvEnd, 5, "potrf", 2)
	var sb strings.Builder
	if err := tr.WritePCF(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EVENT_TYPE", "Task kind", "3      gemm", "6      potrf", "Renaming", "Barrier"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pcf missing %q:\n%s", want, out)
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	tr := New()
	tr.Emit(1, EvStart, 0, "gemm", 1)
	tr.Emit(1, EvEnd, 0, "gemm", 1)
	var sb strings.Builder
	tr.Summarize().Format(&sb)
	out := sb.String()
	for _, want := range []string{"trace span", "gemm", "worker"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted summary missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentEmitStripes hammers Emit from many goroutines (the
// shared-tracer pattern of a multi-tenant pool) and checks nothing is
// lost; under -race it verifies the striped buffers need no global lock.
func TestConcurrentEmitStripes(t *testing.T) {
	tr := New()
	const workers, events = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				tr.EmitCtx(w%4, w, EvStart, 1, "k", int64(i))
				tr.EmitCtx(w%4, w, EvEnd, 1, "k", int64(i))
			}
		}(w)
	}
	wg.Wait()
	got := tr.Events()
	if len(got) != 2*workers*events {
		t.Fatalf("recorded %d events, want %d", len(got), 2*workers*events)
	}
	for i := 1; i < len(got); i++ {
		if got[i].When < got[i-1].When {
			t.Fatalf("events not time-sorted at %d", i)
		}
	}
	sum := tr.Summarize()
	if n := sum.Kinds[0].Count; n != workers*events {
		t.Fatalf("summary paired %d executions, want %d", n, workers*events)
	}
}

// TestPRVRoundTripKeepsContext checks the context dimension survives
// the Paraver write/parse cycle via the task field.
func TestPRVRoundTripKeepsContext(t *testing.T) {
	tr := New()
	tr.EmitCtx(0, 1, EvStart, 3, "gemm", 1)
	tr.EmitCtx(0, 1, EvEnd, 3, "gemm", 1)
	tr.EmitCtx(2, 1, EvStart, 3, "gemm", 2)
	tr.EmitCtx(2, 1, EvEnd, 3, "gemm", 2)
	var prv strings.Builder
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePRV(strings.NewReader(prv.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	perCtx := map[int]int{}
	for _, ev := range back.Events() {
		if ev.Type == EvStart {
			perCtx[ev.Ctx]++
		}
	}
	if perCtx[0] != 1 || perCtx[2] != 1 {
		t.Fatalf("contexts after round trip = %v, want one start in ctx 0 and ctx 2", perCtx)
	}
}

// TestSummarizeFlushesTruncatedStarts pins the mid-trace-close
// contract: a context that stops emitting between a start and its end
// (or a trace snapshotted while tasks run) must surface as an explicit
// truncation — not vanish, and not unbalance the pairing of later
// events on the same (context, worker) key.
func TestSummarizeFlushesTruncatedStarts(t *testing.T) {
	tr := New()
	// Context 7 closes mid-execution: start without end.
	tr.EmitCtx(7, 1, EvStart, 0, "orphan", 1)
	// Same worker, different context: its pairing must be unaffected.
	tr.EmitCtx(0, 1, EvStart, 1, "gemm", 2)
	tr.EmitCtx(0, 1, EvEnd, 1, "gemm", 2)
	// Lost end inside one context: two starts back to back — the first
	// flushes as truncated, the second pairs with the end that follows.
	tr.EmitCtx(0, 2, EvStart, 1, "gemm", 3)
	tr.EmitCtx(0, 2, EvStart, 1, "gemm", 4)
	tr.EmitCtx(0, 2, EvEnd, 1, "gemm", 4)

	sum := tr.Summarize()
	if sum.Truncated != 2 {
		t.Fatalf("Truncated = %d, want 2 (orphan start + lost end)", sum.Truncated)
	}
	byLabel := map[string]KindSummary{}
	for _, k := range sum.Kinds {
		byLabel[k.Label] = k
	}
	if k := byLabel["gemm"]; k.Count != 2 || k.Truncated != 1 {
		t.Fatalf("gemm = %+v, want 2 completed + 1 truncated", k)
	}
	if k := byLabel["orphan"]; k.Count != 0 || k.Truncated != 1 {
		t.Fatalf("orphan = %+v, want 0 completed + 1 truncated", k)
	}

	var sb strings.Builder
	sum.Format(&sb)
	if !strings.Contains(sb.String(), "truncated") {
		t.Fatalf("formatted summary hides the truncation marker:\n%s", sb.String())
	}
}

// TestChainEventRoundTrip: the successor-chain dimension survives
// summary counting and the Paraver write/parse cycle.
func TestChainEventRoundTrip(t *testing.T) {
	tr := New()
	tr.EmitCtx(0, 1, EvStart, 3, "gemm", 1)
	tr.EmitCtx(0, 1, EvEnd, 3, "gemm", 1)
	tr.EmitCtx(0, 1, EvChain, 3, "gemm", 2)
	tr.EmitCtx(0, 1, EvStart, 3, "gemm", 2)
	tr.EmitCtx(0, 1, EvEnd, 3, "gemm", 2)
	if sum := tr.Summarize(); sum.Chained != 1 || sum.Truncated != 0 {
		t.Fatalf("summary = chained %d truncated %d, want 1 and 0", sum.Chained, sum.Truncated)
	}
	var prv strings.Builder
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePRV(strings.NewReader(prv.String()), map[int]string{3: "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	var chains int
	for _, ev := range back.Events() {
		if ev.Type == EvChain {
			chains++
			if ev.Kind != 3 || ev.Label != "gemm" {
				t.Fatalf("chain event lost its kind: %+v", ev)
			}
		}
	}
	if chains != 1 {
		t.Fatalf("chain events after round trip = %d, want 1", chains)
	}
	var pcf strings.Builder
	if err := tr.WritePCF(&pcf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pcf.String(), "Successor chain") {
		t.Fatalf("PCF missing the successor-chain event type")
	}
}

func TestFailureEventsRoundTrip(t *testing.T) {
	tr := New()
	tr.EmitCtx(0, 1, EvStart, 2, "boom", 1)
	tr.EmitCtx(0, 1, EvFail, 2, "boom", 1)
	tr.EmitCtx(0, 1, EvEnd, 2, "boom", 1)
	tr.EmitCtx(0, 2, EvPoisoned, 2, "boom", 2)
	tr.EmitCtx(0, 2, EvPoisoned, 2, "boom", 3)
	tr.EmitCtx(1, 2, EvCanceled, 2, "boom", 4)
	sum := tr.Summarize()
	if sum.Failures != 1 || sum.Poisoned != 2 || sum.Canceled != 1 {
		t.Fatalf("summary = failures %d poisoned %d canceled %d, want 1/2/1",
			sum.Failures, sum.Poisoned, sum.Canceled)
	}
	var rep strings.Builder
	sum.Format(&rep)
	for _, want := range []string{"failures: 1", "poisoned: 2", "canceled: 1"} {
		if !strings.Contains(rep.String(), want) {
			t.Fatalf("summary report missing %q:\n%s", want, rep.String())
		}
	}

	var prv strings.Builder
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePRV(strings.NewReader(prv.String()), map[int]string{2: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventType]int{}
	for _, ev := range back.Events() {
		counts[ev.Type]++
		switch ev.Type {
		case EvFail, EvPoisoned, EvCanceled:
			if ev.Kind != 2 || ev.Label != "boom" {
				t.Fatalf("%v event lost its kind: %+v", ev.Type, ev)
			}
		}
	}
	if counts[EvFail] != 1 || counts[EvPoisoned] != 2 || counts[EvCanceled] != 1 {
		t.Fatalf("round-trip counts = %v", counts)
	}
	bsum := back.Summarize()
	if bsum.Failures != 1 || bsum.Poisoned != 2 || bsum.Canceled != 1 {
		t.Fatalf("round-trip summary = %+v", bsum)
	}

	var pcf strings.Builder
	if err := tr.WritePCF(&pcf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Task failure", "Poisoned skip", "Canceled skip"} {
		if !strings.Contains(pcf.String(), want) {
			t.Fatalf("PCF missing %q", want)
		}
	}
}

func TestSummarizeBarrierWait(t *testing.T) {
	tr := New()
	tr.Emit(0, EvBarrier, -1, "", 0)
	tr.Emit(0, EvBarrierDone, -1, "", 0)
	tr.EmitCtx(1, 0, EvBarrier, -1, "", 0) // snapshotted inside: no exit
	sum := tr.Summarize()
	if sum.Barriers != 2 {
		t.Fatalf("barriers = %d, want 2", sum.Barriers)
	}
	if sum.BarrierWait <= 0 {
		t.Fatalf("barrier wait must be positive, got %v", sum.BarrierWait)
	}
	var sb strings.Builder
	sum.Format(&sb)
	if !strings.Contains(sb.String(), "barriers: 2") {
		t.Fatalf("Format omits barriers:\n%s", sb.String())
	}
}
