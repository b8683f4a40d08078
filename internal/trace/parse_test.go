package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestPRVRoundTrip writes a trace, parses it back, and checks the
// summary survives: same kind counts, same worker task counts.
func TestPRVRoundTrip(t *testing.T) {
	tr := New()
	tr.Emit(0, EvCreate, 3, "gemm", 1)
	tr.Emit(1, EvStart, 3, "gemm", 1)
	tr.Emit(1, EvEnd, 3, "gemm", 1)
	tr.Emit(2, EvStart, 4, "potrf", 2)
	tr.Emit(2, EvEnd, 4, "potrf", 2)
	tr.Emit(0, EvRename, 3, "gemm", 5)
	tr.Emit(0, EvBarrier, -1, "", 0)
	tr.Emit(0, EvBarrierDone, -1, "", 0)

	var prv, pcf strings.Builder
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePCF(&pcf); err != nil {
		t.Fatal(err)
	}
	labels, err := ParsePCF(strings.NewReader(pcf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if labels[3] != "gemm" || labels[4] != "potrf" {
		t.Fatalf("pcf labels = %v", labels)
	}

	back, err := ParsePRV(strings.NewReader(prv.String()), labels)
	if err != nil {
		t.Fatal(err)
	}
	sum := back.Summarize()
	if sum.Renames != 1 {
		t.Fatalf("round-trip renames = %d, want 1", sum.Renames)
	}
	kinds := map[string]int{}
	for _, k := range sum.Kinds {
		kinds[k.Label] = k.Count
	}
	if kinds["gemm"] != 1 || kinds["potrf"] != 1 {
		t.Fatalf("round-trip kinds = %v", kinds)
	}
	if len(back.Events()) != len(tr.Events()) {
		t.Fatalf("round-trip lost events: %d vs %d", len(back.Events()), len(tr.Events()))
	}
}

func TestParsePRVWithoutLabels(t *testing.T) {
	tr := New()
	tr.Emit(0, EvStart, 7, "x", 1)
	tr.Emit(0, EvEnd, 7, "x", 1)
	var prv strings.Builder
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePRV(strings.NewReader(prv.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := back.Summarize()
	if len(sum.Kinds) != 1 || sum.Kinds[0].Label != "kind7" {
		t.Fatalf("placeholder label missing: %+v", sum.Kinds)
	}
}

func TestParsePRVRejectsMalformed(t *testing.T) {
	if _, err := ParsePRV(strings.NewReader("2:1:1:1:1:5\n"), nil); err == nil {
		t.Fatalf("short event record must fail")
	}
	if _, err := ParsePRV(strings.NewReader("2:1:1:1:1:x:90000001:1\n"), nil); err == nil {
		t.Fatalf("non-numeric field must fail")
	}
}

func TestParsePRVSkipsForeignRecords(t *testing.T) {
	src := "#Paraver (x):1_ns:1(1):1:1(1:1)\n" +
		"1:1:1:1:1:0:100:1\n" + // state record: skipped
		"2:1:1:1:1:50:12345:9\n" + // foreign event type: skipped
		"2:1:1:1:1:60:90000001:1\n" +
		"2:1:1:1:1:70:90000001:0\n"
	back, err := ParsePRV(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.Events()); got != 2 {
		t.Fatalf("parsed %d events, want 2", got)
	}
}

// TestParsePRVSkipsRetiredScalingRecords: traces written while the pool
// still had elastic sizing carry pool grow/shrink records (event types
// 90000009 and 90000010, value = team size).  They must load as
// foreign records: skipped, with every task event around them kept.
func TestParsePRVSkipsRetiredScalingRecords(t *testing.T) {
	src := "#Paraver (x):1_ns:1(3):1:1(3:1)\n" +
		"2:1:1:1:1:10:90000004:1\n" + // create
		"2:3:1:1:3:20:90000009:2\n" + // pool grow: skipped
		"2:3:1:1:3:30:90000001:1\n" + // start
		"2:3:1:1:3:40:90000002:1\n" + // rename
		"2:3:1:1:3:50:90000001:0\n" + // end
		"2:3:1:1:3:60:90000010:1\n" // pool shrink: skipped
	back, err := ParsePRV(strings.NewReader(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []EventType
	for _, ev := range back.Events() {
		got = append(got, ev.Type)
	}
	want := []EventType{EvCreate, EvStart, EvRename, EvEnd}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("parsed events %v, want %v", got, want)
	}
	if sum := back.Summarize(); sum.Created != 1 || sum.Renames != 1 || len(sum.Kinds) != 1 || sum.Kinds[0].Count != 1 {
		t.Fatalf("summary = %+v, want one created, renamed and completed task", sum)
	}
}

// FuzzParsePRV: ParsePRV never panics, and for input it accepts
// WritePRV∘ParsePRV is a fixed point — what WritePRV writes parses back
// and writes out byte-identical.
func FuzzParsePRV(f *testing.F) {
	tr := New()
	tr.Emit(0, EvCreate, 2, "spotrf", 1)
	tr.EmitCtx(1, 3, EvStart, 2, "spotrf", 1)
	tr.EmitCtx(1, 3, EvRename, -1, "", 1)
	tr.EmitCtx(1, 3, EvEnd, 2, "spotrf", 1)
	tr.Emit(0, EvBarrier, -1, "", 0)
	tr.Emit(0, EvBarrierDone, -1, "", 0)
	var seed bytes.Buffer
	if err := tr.WritePRV(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	// Two workers sharing a stripe and a timestamp, an end without a
	// start, foreign records, and two malformed lines.
	f.Add([]byte("2:1:1:1:1:5:90000001:3\n2:17:1:1:17:5:90000001:0\n2:1:1:1:1:5:90000009:4\n"))
	f.Add([]byte("1:1:1:1:1:0:10:1\n2:1:1:1:1:7:12345:1\n# comment\n\n"))
	f.Add([]byte("2:1:1:1\n"))
	f.Add([]byte("2:1:1:1:1:x:90000001:1\n"))
	// Enough records with tied timestamps that an unstable time sort
	// would reorder them between one write and the next.
	var ties bytes.Buffer
	for i := 0; i < 40; i++ {
		w := i*7%20 + 1
		fmt.Fprintf(&ties, "2:%d:1:1:%d:%d:90000001:%d\n", w, w, i%3, i%2*(i%5+1))
	}
	f.Add(ties.Bytes())
	f.Fuzz(func(t *testing.T, in []byte) {
		first, err := ParsePRV(bytes.NewReader(in), nil)
		if err != nil {
			return
		}
		var w1, w2 bytes.Buffer
		if err := first.WritePRV(&w1); err != nil {
			t.Fatal(err)
		}
		second, err := ParsePRV(bytes.NewReader(w1.Bytes()), nil)
		if err != nil {
			t.Fatalf("ParsePRV rejects what WritePRV wrote: %v\n%s", err, w1.Bytes())
		}
		if err := second.WritePRV(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("not a fixed point:\nfirst:\n%s\nsecond:\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}
