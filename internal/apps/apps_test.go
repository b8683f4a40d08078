package apps

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cilkrt"
	"repro/internal/core"
	"repro/internal/omptask"
)

var smallSort = SortConfig{QuickSize: 64, MergeSize: 64}

func randKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	return keys
}

func isSorted(keys []int64) bool {
	return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
}

func sameMultiset(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	ca := append([]int64(nil), a...)
	cb := append([]int64(nil), b...)
	sort.Slice(ca, func(i, j int) bool { return ca[i] < ca[j] })
	sort.Slice(cb, func(i, j int) bool { return cb[i] < cb[j] })
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

func TestSeqQuickSortsAnything(t *testing.T) {
	f := func(raw []int64) bool {
		data := append([]int64(nil), raw...)
		seqQuick(data)
		return isSorted(data) && sameMultiset(raw, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqMerge(t *testing.T) {
	a := []int64{1, 3, 5}
	b := []int64{2, 3, 6, 9}
	dest := make([]int64, 7)
	seqMerge(a, b, dest)
	want := []int64{1, 2, 3, 3, 5, 6, 9}
	for i := range want {
		if dest[i] != want[i] {
			t.Fatalf("dest = %v, want %v", dest, want)
		}
	}
	// Empty inputs.
	seqMerge(nil, b, dest[:4])
	if dest[0] != 2 || dest[3] != 9 {
		t.Fatalf("merge with empty first run broken: %v", dest[:4])
	}
	seqMerge(a, nil, dest[:3])
	if dest[0] != 1 || dest[2] != 5 {
		t.Fatalf("merge with empty second run broken: %v", dest[:3])
	}
}

func TestMultisortSeq(t *testing.T) {
	orig := randKeys(10000, 1)
	data := append([]int64(nil), orig...)
	MultisortSeq(data, smallSort)
	if !isSorted(data) || !sameMultiset(orig, data) {
		t.Fatalf("sequential multisort failed")
	}
}

func TestMultisortCilk(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rt := cilkrt.New(workers)
		orig := randKeys(20000, 2)
		data := append([]int64(nil), orig...)
		MultisortCilk(rt, data, smallSort)
		rt.Close()
		if !isSorted(data) || !sameMultiset(orig, data) {
			t.Fatalf("workers=%d: cilk multisort failed", workers)
		}
	}
}

func TestMultisortOMP(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rt := omptask.New(workers)
		orig := randKeys(20000, 3)
		data := append([]int64(nil), orig...)
		MultisortOMP(rt, data, smallSort)
		rt.Close()
		if !isSorted(data) || !sameMultiset(orig, data) {
			t.Fatalf("workers=%d: omp multisort failed", workers)
		}
	}
}

func TestMultisortSMPSs(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		rt := core.New(core.Config{Workers: workers})
		orig := randKeys(20000, 4)
		data := append([]int64(nil), orig...)
		if err := MultisortSMPSs(rt.Context(), data, smallSort); err != nil {
			t.Fatal(err)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if !isSorted(data) || !sameMultiset(orig, data) {
			t.Fatalf("workers=%d: SMPSs multisort failed", workers)
		}
	}
}

// TestMultisortSMPSsForgetsMergeBuffer: each call allocates its own
// merge buffer (1 MiB here), and a long-lived context must not keep a
// tracker object — and through it the buffer — per call.
func TestMultisortSMPSsForgetsMergeBuffer(t *testing.T) {
	rt := core.New(core.Config{Workers: 2})
	defer rt.Close()
	orig := randKeys(128<<10, 6)
	data := make([]int64, len(orig))
	heapAfterSort := func() uint64 {
		copy(data, orig)
		if err := MultisortSMPSs(rt.Context(), data, DefaultSortConfig); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	first := heapAfterSort()
	var last uint64
	for i := 1; i < 30; i++ {
		last = heapAfterSort()
	}
	if !isSorted(data) || !sameMultiset(orig, data) {
		t.Fatal("SMPSs multisort failed")
	}
	if grown := int64(last) - int64(first); grown > 4<<20 {
		t.Fatalf("29 further sorts on one context retained %d KiB of heap", grown>>10)
	}
}

func TestMultisortSMPSsCoarse(t *testing.T) {
	// The regions-off ablation must still sort correctly — just without
	// parallelism between overlapping pieces.
	for _, workers := range []int{1, 4} {
		rt := core.New(core.Config{Workers: workers})
		orig := randKeys(5000, 14)
		data := append([]int64(nil), orig...)
		if err := MultisortSMPSsCoarse(rt.Context(), data, smallSort); err != nil {
			t.Fatal(err)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		if !isSorted(data) || !sameMultiset(orig, data) {
			t.Fatalf("workers=%d: coarse SMPSs multisort failed", workers)
		}
	}
}

func TestMultisortSMPSsSmallInput(t *testing.T) {
	// Input below QuickSize: a single seqquick task.
	rt := core.New(core.Config{Workers: 2})
	orig := randKeys(50, 5)
	data := append([]int64(nil), orig...)
	if err := MultisortSMPSs(rt.Context(), data, smallSort); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if !isSorted(data) || !sameMultiset(orig, data) {
		t.Fatalf("small-input multisort failed")
	}
}

func TestMultisortAgreementProperty(t *testing.T) {
	// Property: all four implementations produce the same sorted array.
	f := func(seed int64, rawN uint16) bool {
		n := int(rawN%4000) + 100
		orig := randKeys(n, seed)
		want := append([]int64(nil), orig...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		seq := append([]int64(nil), orig...)
		MultisortSeq(seq, smallSort)

		crt := cilkrt.New(4)
		ck := append([]int64(nil), orig...)
		MultisortCilk(crt, ck, smallSort)
		crt.Close()

		ort := omptask.New(4)
		om := append([]int64(nil), orig...)
		MultisortOMP(ort, om, smallSort)
		ort.Close()

		srt := core.New(core.Config{Workers: 4})
		sm := append([]int64(nil), orig...)
		if err := MultisortSMPSs(srt.Context(), sm, smallSort); err != nil {
			return false
		}
		srt.Close()

		for i := range want {
			if seq[i] != want[i] || ck[i] != want[i] || om[i] != want[i] || sm[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Known N-Queens solution counts.
var queensCounts = map[int]int64{
	4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724, 11: 2680, 12: 14200,
}

func TestNQueensSeq(t *testing.T) {
	for n, want := range queensCounts {
		if n > 10 {
			continue
		}
		if got := NQueensSeq(n); got != want {
			t.Fatalf("NQueensSeq(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNQueensCilk(t *testing.T) {
	for _, workers := range []int{1, 8} {
		rt := cilkrt.New(workers)
		if got := NQueensCilk(rt, 9); got != 352 {
			t.Fatalf("workers=%d: NQueensCilk(9) = %d, want 352", workers, got)
		}
		rt.Close()
	}
}

func TestNQueensOMP(t *testing.T) {
	for _, workers := range []int{1, 8} {
		rt := omptask.New(workers)
		if got := NQueensOMP(rt, 9); got != 352 {
			t.Fatalf("workers=%d: NQueensOMP(9) = %d, want 352", workers, got)
		}
		rt.Close()
	}
}

func TestNQueensSMPSs(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		rt := core.New(core.Config{Workers: workers})
		got, err := NQueensSMPSs(rt.Context(), 9)
		if err != nil {
			t.Fatal(err)
		}
		if got != 352 {
			t.Fatalf("workers=%d: NQueensSMPSs(9) = %d, want 352", workers, got)
		}
		if workers > 1 {
			if st := rt.Stats(); st.Deps.Renames == 0 {
				t.Logf("note: no renames observed (timing-dependent)")
			}
		}
		rt.Close()
	}
}

// TestNQueensSMPSsForgetsCells: every run writes one fresh cell per tail
// task, and a long-lived context must not keep a tracker object — and
// through it the cell — per cell it ever saw.  One thread, so that every
// run renames as many boards as the last and the rename pool's free list
// does not move the heap.
func TestNQueensSMPSsForgetsCells(t *testing.T) {
	rt := core.New(core.Config{Workers: 1})
	defer rt.Close()
	heapAfterRun := func() uint64 {
		if got, err := NQueensSMPSs(rt.Context(), 9); err != nil || got != 352 {
			t.Fatalf("NQueensSMPSs(9) = %d, %v; want 352", got, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	first := heapAfterRun()
	var last uint64
	for i := 1; i < 20; i++ {
		last = heapAfterRun()
	}
	if grown := int64(last) - int64(first); grown > 256<<10 {
		t.Fatalf("19 further runs on one context retained %d KiB of heap", grown>>10)
	}
}

func TestNQueensSMPSsLargerBoard(t *testing.T) {
	rt := core.New(core.Config{Workers: 8})
	defer rt.Close()
	got, err := NQueensSMPSs(rt.Context(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2680 {
		t.Fatalf("NQueensSMPSs(11) = %d, want 2680", got)
	}
}

func TestNQueensSmallBoards(t *testing.T) {
	// Boards with n ≤ TailLevels exercise the degenerate path where the
	// root immediately becomes one tail task.
	rt := core.New(core.Config{Workers: 2})
	defer rt.Close()
	got, err := NQueensSMPSs(rt.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("NQueensSMPSs(4) = %d, want 2", got)
	}
}

func TestAllModelsAgreeOnQueens(t *testing.T) {
	n := 10
	want := queensCounts[n]
	crt := cilkrt.New(4)
	ort := omptask.New(4)
	srt := core.New(core.Config{Workers: 4})
	defer crt.Close()
	defer ort.Close()
	defer srt.Close()
	if got := NQueensCilk(crt, n); got != want {
		t.Fatalf("cilk: %d, want %d", got, want)
	}
	if got := NQueensOMP(ort, n); got != want {
		t.Fatalf("omp: %d, want %d", got, want)
	}
	got, err := NQueensSMPSs(srt.Context(), n)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("smpss: %d, want %d", got, want)
	}
}

func TestInsertionSortEdgeCases(t *testing.T) {
	for _, data := range [][]int64{{}, {1}, {2, 1}, {3, 3, 3}, {5, 4, 3, 2, 1}} {
		d := append([]int64(nil), data...)
		insertionSort(d)
		if !isSorted(d) || !sameMultiset(data, d) {
			t.Fatalf("insertionSort(%v) = %v", data, d)
		}
	}
}

func TestLowerBound(t *testing.T) {
	r := []int64{2, 4, 4, 8}
	cases := map[int64]int{1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 8: 3, 9: 4}
	for v, want := range cases {
		if got := lowerBound(r, v); got != want {
			t.Fatalf("lowerBound(%v, %d) = %d, want %d", r, v, got, want)
		}
	}
}
