package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/dataid"
	"repro/internal/graph"
)

// Tests of the recycled task record: allocation pins for the submission
// path, the lifetime rule under forced reuse, and the two behaviours
// that ride on it (poison through a completed producer, admission of a
// canceled context).

var nopDef = NewTaskDef("nop", func(a *Args) {})

// waitDrained spins until every submitted task has completed and its
// record is back on the free list, without the sync-back a Barrier does.
func waitDrained(c *Context) {
	for !c.drained() {
		runtime.Gosched()
	}
}

// submitOK is Submit for the allocation pins: a direct call, so the
// argument list stays on the caller's stack as it does at any call site.
func submitOK(t *testing.T, c *Context, def *TaskDef, args ...Arg) {
	if err := c.Submit(def, args...); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitAllocatesNothing pins the steady-state cost of a Submit call
// site at zero allocations: the arguments are built inside the measured
// function, as a program builds them.  One thread and no throttle:
// nothing executes between the warm-up's Barrier and the closing one, so
// the measured Submits reuse exactly what the warm-up freed.
func TestSubmitAllocatesNothing(t *testing.T) {
	const warm, runs = 48, 32 // < the rename pool's per-class bound
	const wide = 192          // rename_churn's gate: 64 buffers × 3 readers
	x := make([]float32, 64)
	y := make([]float32, 64)
	z := make([]float32, 64)
	type cell struct{ v, w int64 }
	p := new(cell)
	big, frac := 1<<40, 2.5
	turn := 0 // counts the runs of the alternating case
	cases := []struct {
		name  string
		run   func(t *testing.T, c *Context) // the task sequence of one run
		check func(t *testing.T, before, after Stats)
	}{
		{name: "inout", run: func(t *testing.T, c *Context) { submitOK(t, c, nopDef, InOut(x)) }},
		{name: "in+inout", run: func(t *testing.T, c *Context) { submitOK(t, c, nopDef, In(x), InOut(y)) }},
		{name: "value-int>255", run: func(t *testing.T, c *Context) { submitOK(t, c, nopDef, InOut(x), Value(big)) }},
		{name: "value-float64", run: func(t *testing.T, c *Context) { submitOK(t, c, nopDef, InOut(x), Value(frac)) }},
		{name: "ptr", run: func(t *testing.T, c *Context) { submitOK(t, c, nopDef, InPtr(p), InOut(x)) }},
		{
			// rename_churn's reader: two inputs, an accumulator, an index.
			name: "in+in+inout+value",
			run: func(t *testing.T, c *Context) {
				submitOK(t, c, nopDef, In(x), In(y), InOut(z), Value(int64(big)))
			},
		},
		{
			// The reader is still pending when the writer is analyzed, so
			// every Out renames, into an instance the warm-up released.
			name: "out-renames-pool-hit",
			run: func(t *testing.T, c *Context) {
				submitOK(t, c, nopDef, In(x))
				submitOK(t, c, nopDef, Out(x))
			},
			check: func(t *testing.T, before, after Stats) {
				if d := after.Renames - before.Renames; d != runs+1 {
					t.Errorf("measured renames = %d, want %d", d, runs+1)
				}
				if d := after.PoolMisses - before.PoolMisses; d != 0 {
					t.Errorf("measured pool misses = %d, want 0", d)
				}
			},
		},
		{
			// A writer with 192 pending readers, every other run: its
			// successor list and its version's reader list outgrow their
			// room.  Records and versions come off the free lists in no
			// particular order, so a narrow run's record or version
			// takes the wide role next; the lists' storage must come
			// from the store, not from what the record last held.
			name: "out+192-in-alternating",
			run: func(t *testing.T, c *Context) {
				n := 1
				if turn++; turn%2 == 1 {
					n = wide
				}
				submitOK(t, c, nopDef, Out(x))
				for i := 0; i < n; i++ {
					submitOK(t, c, nopDef, In(x))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{Workers: 1})
			defer rt.Close()
			c := rt.Context()
			run := func() { tc.run(t, c) }
			for i := 0; i < warm; i++ {
				run()
			}
			if err := rt.Barrier(); err != nil {
				t.Fatal(err)
			}
			before := rt.Stats()
			if n := testing.AllocsPerRun(runs, run); n != 0 {
				t.Errorf("Submit allocates %v times per run in steady state, want 0", n)
			}
			if tc.check != nil {
				tc.check(t, before, rt.Stats())
			}
			if err := rt.Barrier(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestForgetAllocatesNothing: the slice a program hands Forget is boxed
// at the call site, and the box stays on the caller's stack only if
// nothing behind Forget keeps it, so forgetting a temporary per task
// (N-Queens' cells) costs no allocation.
func TestForgetAllocatesNothing(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	c := rt.Context()
	cell := make([]int64, 1)
	submitOK(t, c, nopDef, Out(cell))
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	forget := func() { c.Forget(cell) } // the first run drops the object
	if n := testing.AllocsPerRun(32, forget); n != 0 {
		t.Fatalf("Forget allocates %v times, want 0", n)
	}
	if _, tracked := c.tr.CurrentInstance(dataid.Key(cell)).([]int64); tracked {
		t.Fatalf("Forget left the object tracked")
	}
}

// TestArgSize: an Arg is copied into every Submit's argument list, and
// PR 14 measured what a 96-byte one costs cholesky_tiles.
func TestArgSize(t *testing.T) {
	if n := unsafe.Sizeof(Arg{}); n > 80 {
		t.Fatalf("Sizeof(Arg) = %d, want at most 80", n)
	}
}

// TestRegionSubmitAllocatesNothing is TestSubmitAllocatesNothing for the
// array-region path: regions are values, the region history files an
// access in lists that earlier accesses grew, and a WaitOnRegion that
// finds no pending writer builds nothing.  In the first three cases each
// task has a leaf of its own, as multisort's have, so no edge is added;
// in the fan-out case a task over the whole array heads every sweep and
// the leaves' readers are its successors, which outgrow its room.  The
// warm-up goes over the leaves twice, as the second access of a leaf may
// still find the first one's entry and grow the list, and submits more
// tasks at once than the measurement does, so the history has swept with
// more live entries than the measured sweeps meet.
func TestRegionSubmitAllocatesNothing(t *testing.T) {
	const warm, runs, leaf = 128, 32, 16
	src := make([]int64, warm*leaf)
	dst := make([]int64, warm*leaf)
	mat := make([]float32, warm*leaf)
	var boxed any = src
	cases := []struct {
		name   string
		submit func(t *testing.T, c *Context, lo int64) // the task of the leaf at lo
	}{
		{"inout", func(t *testing.T, c *Context, lo int64) { submitOK(t, c, nopDef, InOutR(src, Span(lo, leaf))) }},
		{"in+in+out", func(t *testing.T, c *Context, lo int64) {
			submitOK(t, c, nopDef,
				InR(src, Span(lo, leaf/2)), InR(src, Span(lo+leaf/2, leaf/2)), OutR(dst, Span(lo, leaf)))
		}},
		{"rect", func(t *testing.T, c *Context, lo int64) {
			submitOK(t, c, nopDef, InOutR(mat, Rect(lo/leaf, lo/leaf, 0, leaf-1)))
		}},
		{"fanout", func(t *testing.T, c *Context, lo int64) {
			// A writer over the whole array, then readers of 32 leaves:
			// each reader and the next writer are successors of the
			// writer, 33 of them against its room of two.
			submitOK(t, c, nopDef, InOutR(src, Span(0, warm*leaf)))
			for k := int64(0); k < 32; k++ {
				submitOK(t, c, nopDef, InR(src, Span((lo+k*leaf)%(warm*leaf), leaf)))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{Workers: 1})
			defer rt.Close()
			c := rt.Context()
			next := 0
			run := func() {
				tc.submit(t, c, int64(next%warm)*leaf)
				next++
			}
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < warm; i++ {
					run()
				}
				if err := rt.Barrier(); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(runs, run); n != 0 {
				t.Errorf("region Submit allocates %v times per run in steady state, want 0", n)
			}
			if err := rt.Barrier(); err != nil {
				t.Fatal(err)
			}
			wait := func() {
				if err := c.WaitOnRegion(boxed, Interval(0, warm*leaf-1)); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(runs, wait); n != 0 {
				t.Errorf("WaitOnRegion with nothing pending allocates %v times, want 0", n)
			}
		})
	}
}

// TestRecorderDisablesRecordReuse: a context with a Recorder attached
// keeps one fresh record per task.
func TestRecorderDisablesRecordReuse(t *testing.T) {
	for _, rec := range []*graph.Recorder{nil, {}} {
		rt := New(Config{Workers: 2, Recorder: rec})
		x := make([]float32, 4)
		for i := 0; i < 100; i++ {
			rt.Submit(nopDef, InOut(x))
		}
		if err := rt.Barrier(); err != nil {
			t.Fatal(err)
		}
		freed := rt.ctx.recs.Get() != nil
		if want := rec == nil; freed != want {
			t.Errorf("recorder attached %v: records on the free list %v, want %v", rec != nil, freed, want)
		}
		rt.Close()
	}
}

// reuseProgram is a program whose every tracker structure outlives many
// lives of the records it points at: a shared input read by every task
// and rewritten now and then over its pending readers (reader lists,
// pruned lazily; renames, or WAR edges from those lists), per-cell
// inout chains, and an object that is read whole for a long time, then
// flipped to region mode by partial writes and waited on by region.  It
// checks the result against the sequential program's and returns the
// context's final statistics.
func reuseProgram(t *testing.T, cfg Config) Stats {
	t.Helper()
	const cells, rounds, half, every = 4, 300, 8, 50
	add := NewTaskDef("reuse_add", func(a *Args) {
		in, flip, cell := a.F32(0), a.F32(1), a.F32(2)
		cell[0] += in[0] + flip[a.Int(3)]
	})
	bump := NewTaskDef("reuse_bump", func(a *Args) {
		flip := a.F32(0)
		lo := a.Int(1)
		for i := lo; i < lo+half; i++ {
			flip[i]++
		}
	})
	incr := NewTaskDef("reuse_incr", func(a *Args) { a.F32(0)[0]++ })
	rt := New(cfg)
	shared := []float32{1}
	flip := make([]float32, 2*half)
	flip[0] = 2
	acc := make([][]float32, cells)
	for i := range acc {
		acc[i] = make([]float32, 1)
	}
	// Whole-object reads of flip and shared, for many record lifetimes.
	for i := 0; i < rounds; i++ {
		rt.Submit(add, In(shared), In(flip), InOut(acc[i%cells]), Value(0))
		if i%every == every-1 {
			rt.Submit(incr, InOut(shared))
		}
	}
	// The flip: seeded from a reader list full of recycled records.
	for r := 0; r < rounds; r++ {
		rt.Submit(bump, InOutR(flip, Span(0, half)), Value(0))
		rt.Submit(bump, InOutR(flip, Span(half, half)), Value(half))
		rt.Submit(add, In(shared), InR(flip, Span(0, 1)), InOut(acc[r%cells]), Value(0))
	}
	// The last writers of either half were recycled long ago for some of
	// these waits, and are still pending for others.
	for r := 0; r < 20; r++ {
		if err := rt.WaitOnRegion(flip, Span(0, half)); err != nil {
			t.Fatal(err)
		}
		if want := float32(2 + rounds + r); flip[0] != want {
			t.Fatalf("after wait %d: flip[0] = %v, want %v", r, flip[0], want)
		}
		rt.Submit(bump, InOutR(flip, Span(0, half)), Value(0))
		for i := 0; i < 10; i++ {
			rt.Submit(add, In(shared), InR(flip, Span(half, 1)), InOut(acc[i%cells]), Value(half))
		}
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// Sequentially: phase one's i-th add sees shared[0] = 1+i/every and
	// flip[0] = 2; phase two's k-th sees the final shared[0] and flip[0] =
	// 2+k+1; phase three's see flip[half] = rounds.
	const final = 1 + rounds/every
	var want float32
	for k := 0; k < rounds; k++ {
		want += float32(1+k/every) + 2
		want += final + float32(2+k+1)
	}
	want += 20 * 10 * (final + rounds)
	if shared[0] != final {
		t.Fatalf("shared[0] = %v, want %v", shared[0], float32(final))
	}
	var got float32
	for i := range acc {
		got += acc[i][0]
	}
	if got != want {
		t.Fatalf("sum of cells = %v, want %v", got, want)
	}
	for i := half; i < 2*half; i++ {
		if flip[i] != rounds {
			t.Fatalf("flip[%d] = %v, want %v", i, flip[i], float32(rounds))
		}
	}
	return st
}

// TestRecordReuseStress forces immediate reuse with a tiny graph limit
// (run it under -race): with renaming, and with hazards materialized as
// edges from the lazily pruned reader lists.
func TestRecordReuseStress(t *testing.T) {
	for _, noRename := range []bool{false, true} {
		for _, workers := range []int{2, 4} {
			st := reuseProgram(t, Config{Workers: workers, GraphLimit: 4, DisableRenaming: noRename})
			if st.TasksExecuted != st.TasksSubmitted {
				t.Fatalf("executed %d of %d", st.TasksExecuted, st.TasksSubmitted)
			}
		}
	}
}

// TestRecordReuseKeepsTheGraph: on one thread the program's schedule is
// a function of the submission order alone, so the dependency counters
// of a run that recycles its records must equal those of a run that
// does not (a Recorder is attached).  A stale pointer mistaken for a
// live task would show as an extra edge.
func TestRecordReuseKeepsTheGraph(t *testing.T) {
	for _, noRename := range []bool{false, true} {
		cfg := Config{Workers: 1, GraphLimit: 4, DisableRenaming: noRename}
		reused := reuseProgram(t, cfg)
		cfg.Recorder = &graph.Recorder{}
		fresh := reuseProgram(t, cfg)
		if reused.Deps != fresh.Deps {
			t.Errorf("DisableRenaming %v: tracker counters differ\nreused %+v\nfresh  %+v", noRename, reused.Deps, fresh.Deps)
		}
		if cfg.Recorder.NumNodes() != int(fresh.TasksSubmitted) {
			t.Errorf("recorded %d nodes of %d tasks", cfg.Recorder.NumNodes(), fresh.TasksSubmitted)
		}
	}
}

// TestPoisonThroughCompletedProducer submits the dependents of a failed
// task only after it has completed and its record has been recycled:
// the taint must reach them through the version, not through an edge.
// A fresh Out overwrite starts clean.  Region-tracked objects are out of
// scope: their history keeps no completed access, so a reader of a
// region analyzed after its failed writer completed still runs.
func TestPoisonThroughCompletedProducer(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		rt := New(Config{Workers: 2, OnFailure: FailPoison, Locality: LocalityConfig{Affinity: affinity}})
		c := rt.Context()
		x := make([]float32, 8)
		y := make([]float32, 8)
		var ran atomic.Int64
		count := NewTaskDef("poisonCount", func(a *Args) { ran.Add(1) })

		rt.Submit(fillDef, Out(x), Value(1.0))
		rt.Submit(failDef, InOut(x))
		waitDrained(c)
		// Recycle the failed task's record a few times over.
		for i := 0; i < 8; i++ {
			rt.Submit(count, InOut(y))
			waitDrained(c)
		}
		rt.Submit(count, In(x))           // reads garbage: poisoned
		rt.Submit(count, InOut(x))        // reads garbage: poisoned
		rt.Submit(count, In(x), InOut(y)) // downstream of the inout: poisoned
		waitDrained(c)
		rt.Submit(count, InOut(x)) // the taint outlives a poisoned writer too
		waitDrained(c)
		rt.Submit(fillDef, Out(x), Value(2.0)) // overwrite: clean again
		rt.Submit(count, InOut(x))
		waitDrained(c)
		rt.Submit(count, In(x))

		err := rt.Barrier()
		var te *TaskError
		if !errors.As(err, &te) || te.Def != "failer" {
			t.Fatalf("Barrier = %v, want the failer's TaskError", err)
		}
		st := rt.Stats()
		if st.Poisoned != 4 || ran.Load() != 8+2 || st.Failures != 1 {
			t.Fatalf("affinity %v: poisoned %d (want 4), counted %d (want 10), failures %d (want 1)",
				affinity, st.Poisoned, ran.Load(), st.Failures)
		}
		if x[0] != 2 {
			t.Fatalf("x[0] = %v, want the overwrite's 2", x[0])
		}
		rt.Close()
	}
}

// TestCanceledContextRefusesEveryEntryPoint: Submit and Batch.Submit
// share one admission check, so a canceled tenant cannot keep
// submitting through the batch path linalg uses.
func TestCanceledContextRefusesEveryEntryPoint(t *testing.T) {
	pool, err := NewPool(PoolConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	c, err := pool.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	b := c.NewBatch()
	b.Add(nopDef, InOut(x))
	c.Cancel()

	var ce *CanceledError
	if err := c.Submit(nopDef, InOut(x)); !errors.As(err, &ce) {
		t.Errorf("Submit on a canceled context = %v, want CanceledError", err)
	}
	if err := b.Submit(); !errors.As(err, &ce) {
		t.Errorf("Batch.Submit on a canceled context = %v, want CanceledError", err)
	}
	if b.Len() != 0 {
		t.Errorf("refused batch kept %d calls", b.Len())
	}
	if n := c.Stats().TasksSubmitted; n != 0 {
		t.Errorf("a canceled context admitted %d tasks", n)
	}
	if err := c.Close(); !errors.As(err, &ce) {
		t.Errorf("Close = %v, want CanceledError", err)
	}
	// Closing does not hide why: Pool.Drain force-closes what it canceled.
	if err := b.Submit(); !errors.As(err, &ce) {
		t.Errorf("Batch.Submit on a canceled, closed context = %v, want CanceledError", err)
	}

	c, err = pool.NewContext(ContextConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b = c.NewBatch()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var cl *ClosedError
	if err := b.Submit(); !errors.As(err, &cl) {
		t.Errorf("Batch.Submit on a closed context = %v, want ClosedError", err)
	}
}
