package core

import "testing"

// TestBatchMatchesSubmit runs a dependent chain through one Batch and
// checks the final value: intra-batch dependencies must resolve exactly
// like separate Submit calls.
//
// The edge-count assertion is deterministic at any worker count:
// Deps.TrueEdges counts logical read-after-write dependencies at
// analysis time, whether or not the producer had already completed (which is the only part that depends on execution
// timing).  This test runs with real workers racing the submitter on
// purpose — the CI race job executes it under GOMAXPROCS=4.
func TestBatchMatchesSubmit(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	x := make([]float32, 8)
	b := rt.NewBatch()
	b.Add(fillDef, Out(x), Value(1.0))
	b.Add(scaleDef, InOut(x), Value(2.0))
	b.Add(scaleDef, InOut(x), Value(2.0))
	b.Add(scaleDef, InOut(x), Value(2.0))
	if err := b.Submit(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if x[0] != 8 {
		t.Fatalf("x[0] = %v, want 8 (1 × 2³)", x[0])
	}
	if st := rt.Stats(); st.Deps.TrueEdges != 3 {
		t.Fatalf("edges = %d, want the 3-task chain", st.Deps.TrueEdges)
	}
}

// TestBatchReuse drives the arena-backed Batch through several rounds,
// including cross-object dependencies inside one round.
func TestBatchReuse(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	x := make([]float32, 8)
	y := make([]float32, 8)
	b := rt.NewBatch()
	for round := 0; round < 3; round++ {
		b.Add(fillDef, Out(x), Value(float64(round+1)))
		b.Add(fillDef, Out(y), Value(0.0))
		b.Add(axpyDef, In(x), InOut(y), Value(2.0)) // y = 2x
		if b.Len() != 3 {
			t.Fatalf("Len = %d, want 3", b.Len())
		}
		b.Submit()
		if b.Len() != 0 {
			t.Fatalf("batch not reset after Submit")
		}
		if err := rt.Barrier(); err != nil {
			t.Fatal(err)
		}
		if want := float32(2 * (round + 1)); y[0] != want {
			t.Fatalf("round %d: y[0] = %v, want %v", round, y[0], want)
		}
	}
}

// TestBatchRenaming checks WAR/WAW hazards inside one batch still go
// through the renaming engine.
func TestBatchRenaming(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	x := make([]float32, 8)
	y := make([]float32, 8)
	b := rt.NewBatch()
	b.Add(fillDef, Out(x), Value(1.0))
	b.Add(fillDef, Out(y), Value(0.0))
	b.Add(axpyDef, In(x), InOut(y), Value(1.0)) // reader of x
	b.Add(fillDef, Out(x), Value(100.0))        // WAR: renames instead of waiting
	b.Add(axpyDef, In(x), InOut(y), Value(1.0)) // y += 100
	b.Submit()
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	if y[0] != 101 {
		t.Fatalf("y[0] = %v, want 101", y[0])
	}
	if x[0] != 100 {
		t.Fatalf("x[0] = %v, want 100 (synced back after rename)", x[0])
	}
}

// TestWorkStealingStatsExercised checks the runtime actually drives the
// new scheduler machinery under a fan-out workload: own-deque pushes and
// pops must dominate, and nothing may be lost.
func TestWorkStealingStatsExercised(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	const (
		chains = 16 // independent chains executed concurrently
		depth  = 50
	)
	bufs := make([][]float32, chains)
	b := rt.NewBatch()
	for c := range bufs {
		bufs[c] = make([]float32, 8)
		b.Add(fillDef, Out(bufs[c]), Value(1.0))
		for i := 0; i < depth; i++ {
			b.Add(scaleDef, InOut(bufs[c]), Value(1.0))
		}
		b.Submit()
	}
	if err := rt.Barrier(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.TasksExecuted != chains*(depth+1) {
		t.Fatalf("executed %d, want %d", st.TasksExecuted, chains*(depth+1))
	}
	if st.Sched.PushOwn == 0 || st.Sched.PopOwn == 0 {
		t.Fatalf("chain successors never used the own deques: %+v", st.Sched)
	}
}
