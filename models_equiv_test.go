package repro_test

// Cross-model equivalence as a multi-tenant stress harness: every
// programming model the paper compares against — the SMPSs runtime
// itself (internal/core), CellSs (internal/cellss), SuperMatrix
// (internal/supermatrix), OpenMP-3.0 tasks (internal/omptask), Cilk
// (internal/cilkrt) and fork-join threaded BLAS (internal/forkjoin) —
// now runs as a tenant of one shared core.Pool.  The harness runs all
// six concurrently, each on its own randomly generated task program,
// and demands bit-identical agreement with a sequential interpreter
// plus strict per-context stats isolation.  The models implement very
// different scheduling architectures (§VII); dependency semantics are
// the part they must agree on, and the shared pool is the part that
// must keep them apart.
//
// The dependency-aware models (smpss, cellss, supermatrix) get the raw
// program: their trackers derive the ordering.  The dependency-unaware
// models (omptask, cilkrt, forkjoin) cannot — the programmer must place
// barriers, so the harness compiles the program into conflict-free
// levels (an op waits for every earlier op that touches one of its
// buffers with at least one writer) and separates levels with the
// model's own barrier: taskwait, sync, or the fork-join join.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cellss"
	"repro/internal/cilkrt"
	"repro/internal/core"
	"repro/internal/forkjoin"
	"repro/internal/omptask"
	"repro/internal/supermatrix"
)

const (
	equivBufs   = 12
	equivBufLen = 8
	equivOps    = 400
)

// equivOp is one random task invocation: distinct buffer indices with a
// directionality each, plus a seed making the body unique.
type equivOp struct {
	bufs  []int
	modes []int // 0 = in, 1 = out, 2 = inout
	seed  float32
}

// genEquivProgram builds a random program.
func genEquivProgram(seed int64) []equivOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]equivOp, equivOps)
	for i := range ops {
		n := 1 + rng.Intn(3)
		perm := rng.Perm(equivBufs)[:n]
		op := equivOp{bufs: perm, seed: float32(rng.Intn(1000))}
		for range perm {
			op.modes = append(op.modes, rng.Intn(3))
		}
		ops[i] = op
	}
	return ops
}

// equivBody computes the task semantics on the effective storage: read
// every input, then overwrite every output as a function of the inputs.
func equivBody(op equivOp, data [][]float32) {
	val := op.seed
	for k, mode := range op.modes {
		if mode == 0 || mode == 2 {
			for _, v := range data[k] {
				val += v
			}
		}
	}
	val = float32(int64(val) % 9973) // keep magnitudes bounded and exact
	for k, mode := range op.modes {
		if mode == 1 || mode == 2 {
			for i := range data[k] {
				data[k][i] = val + float32(i*(k+1))
			}
		}
	}
}

// equivRunOp applies op directly to the user buffers — the execution
// path of the models without renaming or tracked storage.
func equivRunOp(op equivOp, bufs [][]float32) {
	data := make([][]float32, len(op.bufs))
	for k, b := range op.bufs {
		data[k] = bufs[b]
	}
	equivBody(op, data)
}

// equivLevels compiles the program for the dependency-unaware models:
// each op lands on the lowest level above every earlier conflicting op
// (two ops conflict when they share a buffer and at least one writes
// it).  Ops within a level are pairwise independent, so running levels
// in order with a barrier between them reproduces the sequential result
// bit-identically — exactly the hand-placed barriers the paper says
// these models force on the programmer (§VII.B, §VII.D).
func equivLevels(ops []equivOp) [][]equivOp {
	lastWrite := make([]int, equivBufs)
	lastRead := make([]int, equivBufs)
	for b := range lastWrite {
		lastWrite[b], lastRead[b] = -1, -1
	}
	var levels [][]equivOp
	for _, op := range ops {
		lvl := 0
		for k, b := range op.bufs {
			mode := op.modes[k]
			if lastWrite[b]+1 > lvl { // RAW, WAW on the writer side below
				lvl = lastWrite[b] + 1
			}
			if (mode == 1 || mode == 2) && lastRead[b]+1 > lvl { // WAR
				lvl = lastRead[b] + 1
			}
		}
		for k, b := range op.bufs {
			mode := op.modes[k]
			if (mode == 0 || mode == 2) && lvl > lastRead[b] {
				lastRead[b] = lvl
			}
			if (mode == 1 || mode == 2) && lvl > lastWrite[b] {
				lastWrite[b] = lvl
			}
		}
		for len(levels) <= lvl {
			levels = append(levels, nil)
		}
		levels[lvl] = append(levels[lvl], op)
	}
	return levels
}

func freshBuffers() [][]float32 {
	bufs := make([][]float32, equivBufs)
	for i := range bufs {
		bufs[i] = make([]float32, equivBufLen)
		for j := range bufs[i] {
			bufs[i][j] = float32(i + j)
		}
	}
	return bufs
}

// runSequential interprets the program directly.
func runSequential(ops []equivOp) [][]float32 {
	bufs := freshBuffers()
	for _, op := range ops {
		equivRunOp(op, bufs)
	}
	return bufs
}

// equivDiff reports the first mismatch, or "" on bit-identical buffers.
func equivDiff(got, want [][]float32) string {
	for b := range want {
		for i := range want[b] {
			if got[b][i] != want[b][i] {
				return fmt.Sprintf("buffer %d element %d = %g, want %g", b, i, got[b][i], want[b][i])
			}
		}
	}
	return ""
}

func checkEquiv(t *testing.T, model string, got, want [][]float32) {
	t.Helper()
	if d := equivDiff(got, want); d != "" {
		t.Fatalf("%s: %s", model, d)
	}
}

// equivSubmitCore submits the program to an SMPSs context with full
// directionality; the context's tracker derives the ordering.
func equivSubmitCore(ctx *core.Context, ops []equivOp, bufs [][]float32) error {
	for _, op := range ops {
		def := core.NewTaskDef("equiv_op", func(a *core.Args) {
			data := make([][]float32, len(op.bufs))
			for k := range op.bufs {
				data[k] = a.F32(k)
			}
			equivBody(op, data)
		})
		args := make([]core.Arg, len(op.bufs))
		for k, b := range op.bufs {
			switch op.modes[k] {
			case 0:
				args[k] = core.In(bufs[b])
			case 1:
				args[k] = core.Out(bufs[b])
			default:
				args[k] = core.InOut(bufs[b])
			}
		}
		if err := ctx.Submit(def, args...); err != nil {
			return err
		}
	}
	return nil
}

// equivSubmitCellss is equivSubmitCore for the CellSs-model runtime.
func equivSubmitCellss(rt *cellss.Runtime, ops []equivOp, bufs [][]float32) {
	for _, op := range ops {
		def := cellss.NewTaskDef("equiv_op", func(a *cellss.Args) {
			data := make([][]float32, len(op.bufs))
			for k := range op.bufs {
				data[k] = a.F32(k)
			}
			equivBody(op, data)
		})
		args := make([]cellss.Arg, len(op.bufs))
		for k, b := range op.bufs {
			switch op.modes[k] {
			case 0:
				args[k] = cellss.In(bufs[b])
			case 1:
				args[k] = cellss.Out(bufs[b])
			default:
				args[k] = cellss.InOut(bufs[b])
			}
		}
		rt.Submit(def, args...)
	}
}

// equivSubmitSuper is equivSubmitCore for the SuperMatrix-model runtime.
func equivSubmitSuper(rt *supermatrix.Runtime, ops []equivOp, bufs [][]float32) {
	for _, op := range ops {
		def := supermatrix.NewTaskDef("equiv_op", func(a *supermatrix.Args) {
			data := make([][]float32, len(op.bufs))
			for k := range op.bufs {
				data[k] = a.F32(k)
			}
			equivBody(op, data)
		})
		args := make([]supermatrix.Arg, len(op.bufs))
		for k, b := range op.bufs {
			switch op.modes[k] {
			case 0:
				args[k] = supermatrix.In(bufs[b])
			case 1:
				args[k] = supermatrix.Out(bufs[b])
			default:
				args[k] = supermatrix.InOut(bufs[b])
			}
		}
		rt.Submit(def, args...)
	}
}

// An equivTenant runs one model's program on the shared pool and
// returns the resulting buffers.  Each runner also enforces the
// per-tenant isolation invariants: its own stats account for exactly
// its own program, and no renamed byte stays live after the drain.
type equivTenant struct {
	name string
	run  func(pool *core.Pool, ops []equivOp) ([][]float32, error)
}

func equivTenantSMPSs(pool *core.Pool, ops []equivOp) ([][]float32, error) {
	bufs := freshBuffers()
	ctx, err := pool.NewContext(core.ContextConfig{})
	if err != nil {
		return nil, err
	}
	stopWatch := watchStats(ctx)
	if err := equivSubmitCore(ctx, ops, bufs); err != nil {
		return nil, err
	}
	if err := ctx.Barrier(); err != nil {
		return nil, err
	}
	if err := stopWatch(); err != nil {
		return nil, err
	}
	st := ctx.Stats()
	if st.TasksExecuted != int64(len(ops)) {
		return nil, fmt.Errorf("stats isolation: executed %d, submitted program has %d", st.TasksExecuted, len(ops))
	}
	if err := statsConserved(st); err != nil {
		return nil, err
	}
	if st.LiveRenamedBytes != 0 {
		return nil, fmt.Errorf("%d renamed bytes live after drain", st.LiveRenamedBytes)
	}
	if err := ctx.Close(); err != nil {
		return nil, err
	}
	return bufs, nil
}

func equivTenantCellSs(pool *core.Pool, ops []equivOp) ([][]float32, error) {
	bufs := freshBuffers()
	rt, err := cellss.NewOn(pool, cellss.Config{Bundle: 3})
	if err != nil {
		return nil, err
	}
	equivSubmitCellss(rt, ops, bufs)
	if err := rt.Barrier(); err != nil {
		return nil, err
	}
	st := rt.Stats()
	if st.TasksExecuted != int64(len(ops)) {
		return nil, fmt.Errorf("stats isolation: executed %d, submitted program has %d", st.TasksExecuted, len(ops))
	}
	if st.LiveRenamedBytes != 0 {
		return nil, fmt.Errorf("%d renamed bytes live after drain", st.LiveRenamedBytes)
	}
	if err := rt.Close(); err != nil {
		return nil, err
	}
	return bufs, nil
}

func equivTenantSuperMatrix(pool *core.Pool, ops []equivOp) ([][]float32, error) {
	bufs := freshBuffers()
	rt, err := supermatrix.NewOn(pool, supermatrix.Config{})
	if err != nil {
		return nil, err
	}
	equivSubmitSuper(rt, ops, bufs)
	if err := rt.Execute(); err != nil {
		return nil, err
	}
	st := rt.Stats()
	if st.TasksExecuted != int64(len(ops)) {
		return nil, fmt.Errorf("stats isolation: executed %d, submitted program has %d", st.TasksExecuted, len(ops))
	}
	if st.Deps.Renames != 0 {
		return nil, fmt.Errorf("SuperMatrix must not rename, saw %d", st.Deps.Renames)
	}
	if err := rt.Close(); err != nil {
		return nil, err
	}
	return bufs, nil
}

func equivTenantOmpTask(pool *core.Pool, ops []equivOp) ([][]float32, error) {
	bufs := freshBuffers()
	rt, err := omptask.NewOn(pool)
	if err != nil {
		return nil, err
	}
	var executed atomic.Int64
	rt.Parallel(func(c *omptask.Ctx) {
		for _, level := range equivLevels(ops) {
			for _, op := range level {
				c.Task(func(*omptask.Ctx) {
					equivRunOp(op, bufs)
					executed.Add(1)
				})
			}
			c.Taskwait()
		}
	})
	rt.Close()
	if n := executed.Load(); n != int64(len(ops)) {
		return nil, fmt.Errorf("stats isolation: executed %d, program has %d", n, len(ops))
	}
	return bufs, nil
}

func equivTenantCilk(pool *core.Pool, ops []equivOp) ([][]float32, error) {
	bufs := freshBuffers()
	rt, err := cilkrt.NewOn(pool)
	if err != nil {
		return nil, err
	}
	var executed atomic.Int64
	rt.Run(func(c *cilkrt.Ctx) {
		for _, level := range equivLevels(ops) {
			for _, op := range level {
				c.Spawn(func(*cilkrt.Ctx) {
					equivRunOp(op, bufs)
					executed.Add(1)
				})
			}
			c.Sync()
		}
	})
	rt.Close()
	if n := executed.Load(); n != int64(len(ops)) {
		return nil, fmt.Errorf("stats isolation: executed %d, program has %d", n, len(ops))
	}
	return bufs, nil
}

func equivTenantForkJoin(pool *core.Pool, ops []equivOp) ([][]float32, error) {
	bufs := freshBuffers()
	ctx, err := pool.NewContext(core.ContextConfig{})
	if err != nil {
		return nil, err
	}
	h := forkjoin.On(ctx)
	var executed atomic.Int64
	for _, level := range equivLevels(ops) {
		h.ParallelFor(len(level), func(part int) {
			equivRunOp(level[part], bufs)
			executed.Add(1)
		})
	}
	if err := h.Err(); err != nil {
		return nil, err
	}
	st := ctx.Stats()
	if st.LiveRenamedBytes != 0 {
		return nil, fmt.Errorf("%d renamed bytes live after drain", st.LiveRenamedBytes)
	}
	if err := ctx.Close(); err != nil {
		return nil, err
	}
	if n := executed.Load(); n != int64(len(ops)) {
		return nil, fmt.Errorf("stats isolation: executed %d, program has %d", n, len(ops))
	}
	return bufs, nil
}

var equivTenants = []equivTenant{
	{"smpss", equivTenantSMPSs},
	{"cellss", equivTenantCellSs},
	{"supermatrix", equivTenantSuperMatrix},
	{"omptask", equivTenantOmpTask},
	{"cilkrt", equivTenantCilk},
	{"forkjoin", equivTenantForkJoin},
}

// TestModelsEquivalenceMultiTenant is the mixed-workload stress run:
// all six models execute concurrently as tenants of ONE shared pool,
// each on its own random program, and every tenant must reproduce the
// sequential interpreter bit for bit while its stats stay its own.
func TestModelsEquivalenceMultiTenant(t *testing.T) {
	pool, err := core.NewPool(core.PoolConfig{Workers: 8, MaxContexts: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, tn := range equivTenants {
		ops := genEquivProgram(int64(i + 1))
		want := runSequential(ops)
		wg.Add(1)
		go func(tn equivTenant, ops []equivOp, want [][]float32) {
			defer wg.Done()
			got, err := tn.run(pool, ops)
			if err != nil {
				t.Errorf("%s: %v", tn.name, err)
				return
			}
			if d := equivDiff(got, want); d != "" {
				t.Errorf("%s: %s", tn.name, d)
			}
		}(tn, ops, want)
	}
	wg.Wait()
	if n := pool.Contexts(); n != 0 {
		t.Errorf("%d contexts still attached after every tenant closed", n)
	}
	if t.Failed() {
		return // a failed tenant may have left its context attached
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestModelsEquivalenceSingleWorker is the deterministic variant: every
// model at one worker thread, through its single-tenant constructor (the
// thin wrapper kept over the pool hosting), must still match the
// sequential interpreter.
func TestModelsEquivalenceSingleWorker(t *testing.T) {
	ops := genEquivProgram(7)
	want := runSequential(ops)

	{
		bufs := freshBuffers()
		rt := core.New(core.Config{Workers: 1})
		if err := equivSubmitCore(rt.Context(), ops, bufs); err != nil {
			t.Fatal(err)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, "smpss", bufs, want)
	}
	{
		bufs := freshBuffers()
		rt := cellss.New(cellss.Config{Workers: 1, Bundle: 2})
		equivSubmitCellss(rt, ops, bufs)
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, "cellss", bufs, want)
	}
	{
		bufs := freshBuffers()
		rt := supermatrix.New(supermatrix.Config{Workers: 1})
		equivSubmitSuper(rt, ops, bufs)
		if err := rt.Execute(); err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, "supermatrix", bufs, want)
	}
	{
		bufs := freshBuffers()
		rt := omptask.New(1)
		rt.Parallel(func(c *omptask.Ctx) {
			for _, level := range equivLevels(ops) {
				for _, op := range level {
					c.Task(func(*omptask.Ctx) { equivRunOp(op, bufs) })
				}
				c.Taskwait()
			}
		})
		rt.Close()
		checkEquiv(t, "omptask", bufs, want)
	}
	{
		bufs := freshBuffers()
		rt := cilkrt.New(1)
		rt.Run(func(c *cilkrt.Ctx) {
			for _, level := range equivLevels(ops) {
				for _, op := range level {
					c.Spawn(func(*cilkrt.Ctx) { equivRunOp(op, bufs) })
				}
				c.Sync()
			}
		})
		rt.Close()
		checkEquiv(t, "cilkrt", bufs, want)
	}
	{
		bufs := freshBuffers()
		pool, err := core.NewPool(core.PoolConfig{Workers: 1, MaxContexts: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := pool.NewContext(core.ContextConfig{})
		if err != nil {
			t.Fatal(err)
		}
		h := forkjoin.On(ctx)
		for _, level := range equivLevels(ops) {
			h.ParallelFor(len(level), func(part int) { equivRunOp(level[part], bufs) })
		}
		if err := h.Err(); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		checkEquiv(t, "forkjoin", bufs, want)
	}
}

// TestModelsEquivalenceMultiPhase exercises the SuperMatrix phase
// boundary while hosted on a shared pool: two Execute phases over one
// random program, with the tenant's context persisting between them.
func TestModelsEquivalenceMultiPhase(t *testing.T) {
	ops := genEquivProgram(99)
	half := len(ops) / 2
	want := runSequential(ops)

	pool, err := core.NewPool(core.PoolConfig{Workers: 4, MaxContexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	bufs := freshBuffers()
	rt, err := supermatrix.NewOn(pool, supermatrix.Config{})
	if err != nil {
		t.Fatal(err)
	}
	equivSubmitSuper(rt, ops[:half], bufs)
	if err := rt.Execute(); err != nil {
		t.Fatal(err)
	}
	equivSubmitSuper(rt, ops[half:], bufs)
	if err := rt.Execute(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, "supermatrix-2phase", bufs, want)
}
