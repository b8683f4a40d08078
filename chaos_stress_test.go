package repro_test

// Chaos stress: the seeded fault-injection harness (internal/chaos)
// aimed at the multi-tenant pool.  The tests here are the acceptance
// gate for the failure-domain work: with faults injected into some
// tenants of a shared pool, the unfaulted tenants must stay
// bit-identical to the sequential interpreter, every faulted tenant's
// failure must surface as a typed error at ITS drain point and nowhere
// else, renamed storage must fully drain, and Pool.Drain + Close must
// complete without wedging.  CI runs this file under -race with
// GOMAXPROCS=4 and -count=2 (the second run proves injectors uninstall
// cleanly).
//
// Determinism: every injector decision is a pure hash of (seed, site,
// key), so a given seed faults the same tasks on every run regardless
// of worker interleaving — which is why the tests can assert that the
// targeted tenants DID fail, not just that they may have.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cellss"
	"repro/internal/chaos"
	"repro/internal/cilkrt"
	"repro/internal/core"
	"repro/internal/forkjoin"
	"repro/internal/omptask"
	"repro/internal/supermatrix"
)

// TestChaosMachineryFaultsKeepEveryTenantExact arms only the
// correctness-neutral machinery sites — steal-path delays, dropped
// affinity wakes, simulated rename-storage exhaustion — and runs all
// six programming models concurrently on one shared pool.  The faults
// widen every timing window the scheduler has (the wake-drop site in
// particular forces the generic unpark fallback to cover for the
// affinity wake), yet every tenant must still reproduce the sequential
// interpreter bit for bit.
func TestChaosMachineryFaultsKeepEveryTenantExact(t *testing.T) {
	chaos.Install(chaos.New(chaos.Config{
		Seed: 0xC0FFEE,
		Rates: map[chaos.Site]float64{
			chaos.SiteStealDelay:    0.2,
			chaos.SiteWakeDrop:      0.4,
			chaos.SiteRenameExhaust: 0.5,
		},
		Delay: 50 * time.Microsecond,
	}))
	defer chaos.Uninstall()

	pool, err := core.NewPool(core.PoolConfig{Workers: 8, MaxContexts: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, tn := range equivTenants {
		ops := genEquivProgram(int64(100 + i))
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
	if t.Failed() {
		return // a failed tenant may have left its context attached
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosFaultedTenantsStayIsolated is the failure-domain stress: six
// SMPSs tenants share one pool, and the injector is aimed at the first
// three — injected panics, injected Args.Fail-style errors and body
// delays, with FailPoison skipping the dependents of every failed
// task.  Each targeted tenant must observe a *core.TaskError carrying
// its own context id at its Barrier; each untargeted tenant must stay
// bit-identical to sequential with zero failure counters.  Afterwards
// Pool.Drain must complete (voluntary path: everyone already closed).
func TestChaosFaultedTenantsStayIsolated(t *testing.T) {
	const tenants, faulted = 6, 3

	pool, err := core.NewPool(core.PoolConfig{Workers: 8, MaxContexts: tenants})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*core.Context, tenants)
	targets := make(map[int]bool)
	for i := range ctxs {
		ctx, err := pool.NewContext(core.ContextConfig{OnFailure: core.FailPoison})
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
		if i < faulted {
			targets[ctx.ID()] = true
		}
	}
	chaos.Install(chaos.New(chaos.Config{
		Seed: 7,
		Rates: map[chaos.Site]float64{
			chaos.SiteTaskPanic: 0.04,
			chaos.SiteTaskError: 0.04,
			chaos.SiteTaskDelay: 0.10,
		},
		Delay: 20 * time.Microsecond,
		Ctxs:  targets,
	}))
	defer chaos.Uninstall()

	var wg sync.WaitGroup
	for i, ctx := range ctxs {
		ops := genEquivProgram(int64(200 + i))
		want := runSequential(ops)
		wg.Add(1)
		go func(i int, ctx *core.Context, ops []equivOp, want [][]float32) {
			defer wg.Done()
			bufs := freshBuffers()
			if err := equivSubmitCore(ctx, ops, bufs); err != nil {
				t.Errorf("tenant %d: submit: %v", i, err)
				return
			}
			err := ctx.Barrier()
			st := ctx.Stats()
			if i < faulted {
				var te *core.TaskError
				if !errors.As(err, &te) {
					t.Errorf("faulted tenant %d: Barrier returned %v, want a *core.TaskError", i, err)
					return
				}
				if te.Ctx != ctx.ID() {
					t.Errorf("faulted tenant %d: TaskError carries ctx %d, want %d", i, te.Ctx, ctx.ID())
				}
				if st.Failures == 0 {
					t.Errorf("faulted tenant %d: Stats.Failures == 0 after a TaskError", i)
				}
			} else {
				if err != nil {
					t.Errorf("clean tenant %d: Barrier: %v", i, err)
					return
				}
				if st.Failures != 0 || st.Poisoned != 0 || st.Canceled != 0 {
					t.Errorf("clean tenant %d: failure counters bled in: %+v", i, st)
				}
				if d := equivDiff(bufs, want); d != "" {
					t.Errorf("clean tenant %d: %s", i, d)
				}
			}
			// Failure-domain invariants that hold for everyone: every
			// submitted task was either executed or skipped-and-counted,
			// and the skips still drained the pooled rename storage.
			if err := statsConserved(st); err != nil {
				t.Errorf("tenant %d: %v", i, err)
			}
			if st.LiveRenamedBytes != 0 {
				t.Errorf("tenant %d: %d renamed bytes live after drain", i, st.LiveRenamedBytes)
			}
			ctx.Close()
		}(i, ctx, ops, want)
	}
	wg.Wait()
	if err := pool.Drain(time.Second); err != nil {
		t.Fatalf("Drain after all tenants closed: %v", err)
	}
}

// TestChaosDrainForcesFaultedStragglers submits slow, fault-delayed
// serial chains on every tenant and then drains the pool out from
// under them: Drain's deadline expires, the stragglers are canceled,
// and each blocked Barrier must return a typed CanceledError (reason
// "drain") rather than wedge.  Machinery faults stay armed throughout
// so the cancel path itself runs under dropped wakes and steal delays.
func TestChaosDrainForcesFaultedStragglers(t *testing.T) {
	const tenants = 3

	pool, err := core.NewPool(core.PoolConfig{Workers: 4, MaxContexts: tenants})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*core.Context, tenants)
	targets := make(map[int]bool)
	for i := range ctxs {
		ctx, err := pool.NewContext(core.ContextConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = ctx
		targets[ctx.ID()] = true
	}
	chaos.Install(chaos.New(chaos.Config{
		Seed: 11,
		Rates: map[chaos.Site]float64{
			chaos.SiteTaskDelay:  1.0,
			chaos.SiteStealDelay: 0.2,
			chaos.SiteWakeDrop:   0.5,
		},
		Delay: time.Millisecond,
		Ctxs:  targets,
	}))
	defer chaos.Uninstall()

	slow := core.NewTaskDef("chaos_slow", func(a *core.Args) {
		x := a.F32(0)
		x[0]++
	})
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i, ctx := range ctxs {
		wg.Add(1)
		go func(i int, ctx *core.Context) {
			defer wg.Done()
			// A serial chain (every task InOut on one buffer) that would
			// take ~300ms of injected delay if left alone.
			x := make([]float32, 4)
			for k := 0; k < 300; k++ {
				if err := ctx.Submit(slow, core.InOut(x)); err != nil {
					errs[i] = err
					return
				}
			}
			errs[i] = ctx.Barrier()
		}(i, ctx)
	}
	time.Sleep(5 * time.Millisecond) // let the chains get going
	if err := pool.Drain(10 * time.Millisecond); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		var ce *core.CanceledError
		if !errors.As(err, &ce) {
			t.Errorf("tenant %d: Barrier returned %v, want a *core.CanceledError", i, err)
			continue
		}
		if ce.Reason != "drain" {
			t.Errorf("tenant %d: canceled for %q, want \"drain\"", i, ce.Reason)
		}
		if !ctxs[i].Closed() {
			t.Errorf("tenant %d: context not closed after forced drain", i)
		}
		if st := ctxs[i].Stats(); st.LiveRenamedBytes != 0 {
			t.Errorf("tenant %d: %d renamed bytes live after forced drain", i, st.LiveRenamedBytes)
		}
	}
	if _, err := pool.NewContext(core.ContextConfig{}); err == nil {
		t.Error("NewContext succeeded on a drained pool")
	}
}

// TestChaosCanceledTenantAccountsEveryTask is the no-lost-tasks
// invariant under cancellation: SMPSs tenants submit in paced slices
// on a fixed pool with the machinery sites armed, one tenant is
// canceled mid-flight, and for every tenant executed + poisoned +
// canceled must equal submitted, the scheduler's books must balance,
// and no renamed byte may stay live after its drain.
func TestChaosCanceledTenantAccountsEveryTask(t *testing.T) {
	const tenants = 4
	chaos.Install(chaos.New(chaos.Config{
		Seed: 0xACC7,
		Rates: map[chaos.Site]float64{
			chaos.SiteStealDelay:    0.1,
			chaos.SiteWakeDrop:      0.3,
			chaos.SiteRenameExhaust: 0.3,
		},
		Delay: 50 * time.Microsecond,
	}))
	defer chaos.Uninstall()

	pool, err := core.NewPool(core.PoolConfig{Workers: 4, MaxContexts: tenants})
	if err != nil {
		t.Fatal(err)
	}
	ctxs := make([]*core.Context, tenants)
	for i := range ctxs {
		c, err := pool.NewContext(core.ContextConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ctxs[i] = c
	}
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	// Closed once tenant 0 has two slices in: the cancel then lands
	// while it still has most of its program left to submit.
	started := make(chan struct{})
	for i, c := range ctxs {
		ops := genEquivProgram(int64(900 + i))
		wg.Add(1)
		go func(i int, c *core.Context, ops []equivOp) {
			defer wg.Done()
			bufs := freshBuffers()
			// Submit in paced slices, so the cancel races both the
			// queued work and the next Submit.
			for lo := 0; lo < len(ops); lo += 50 {
				hi := min(lo+50, len(ops))
				if err := equivSubmitCore(c, ops[lo:hi], bufs); err != nil {
					// The canceled tenant's submissions start failing;
					// fall through to Barrier, which still drains the
					// already-queued work as canceled skips.
					break
				}
				if i == 0 && lo == 50 {
					close(started)
				}
				time.Sleep(500 * time.Microsecond)
			}
			errs[i] = c.Barrier()
		}(i, c, ops)
	}
	<-started
	ctxs[0].Cancel() // one tenant aborts mid-flight
	wg.Wait()

	for i, c := range ctxs {
		st := c.Stats()
		if err := statsConserved(st); err != nil {
			t.Errorf("tenant %d: %v", i, err)
		}
		if st.LiveRenamedBytes != 0 {
			t.Errorf("tenant %d: %d renamed bytes live after drain", i, st.LiveRenamedBytes)
		}
		if i == 0 {
			var ce *core.CanceledError
			if errs[i] != nil && !errors.As(errs[i], &ce) {
				t.Errorf("canceled tenant: Barrier returned %v, want *CanceledError or nil", errs[i])
			}
			c.Close()
			continue
		}
		if errs[i] != nil {
			t.Errorf("tenant %d: %v", i, errs[i])
			continue
		}
		if err := c.Close(); err != nil {
			t.Errorf("tenant %d: Close: %v", i, err)
		}
	}
	if t.Failed() {
		return
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosModelPanicIsolation plants one deliberately panicking task
// inside each hosted programming model — CellSs, SuperMatrix, OpenMP
// tasks, Cilk and fork-join — all tenants of ONE shared pool, alongside
// an unfaulted SMPSs co-tenant.  Each model's failure must surface as a
// non-nil error at that model's own drain point (Barrier/Execute/Close)
// carrying the panic payload, and the co-tenant must stay bit-identical
// to the sequential interpreter.
func TestChaosModelPanicIsolation(t *testing.T) {
	const kaput = "model-kaput"

	pool, err := core.NewPool(core.PoolConfig{Workers: 8, MaxContexts: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	fail := func(name string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := f()
			if err == nil {
				t.Errorf("%s: panicking task did not surface at drain", name)
				return
			}
			if !strings.Contains(err.Error(), kaput) {
				t.Errorf("%s: drain error %q does not carry the panic payload", name, err)
			}
		}()
	}

	// The clean co-tenant, racing all five failing models.
	ops := genEquivProgram(321)
	want := runSequential(ops)
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, err := equivTenantSMPSs(pool, ops)
		if err != nil {
			t.Errorf("smpss co-tenant: %v", err)
			return
		}
		if d := equivDiff(got, want); d != "" {
			t.Errorf("smpss co-tenant: %s", d)
		}
	}()

	fail("cellss", func() error {
		rt, err := cellss.NewOn(pool, cellss.Config{Bundle: 2})
		if err != nil {
			return err
		}
		x := make([]float32, 8)
		ok := cellss.NewTaskDef("ok", func(a *cellss.Args) { a.F32(0)[0]++ })
		boom := cellss.NewTaskDef("boom", func(a *cellss.Args) { panic(kaput) })
		rt.Submit(ok, cellss.InOut(x))
		rt.Submit(boom, cellss.InOut(x))
		rt.Submit(ok, cellss.InOut(x))
		return rt.Close()
	})
	fail("supermatrix", func() error {
		rt, err := supermatrix.NewOn(pool, supermatrix.Config{})
		if err != nil {
			return err
		}
		x := make([]float32, 8)
		ok := supermatrix.NewTaskDef("ok", func(a *supermatrix.Args) { a.F32(0)[0]++ })
		boom := supermatrix.NewTaskDef("boom", func(a *supermatrix.Args) { panic(kaput) })
		rt.Submit(ok, supermatrix.InOut(x))
		rt.Submit(boom, supermatrix.InOut(x))
		rt.Submit(ok, supermatrix.InOut(x))
		if err := rt.Execute(); err != nil {
			rt.Close()
			return err
		}
		return rt.Close()
	})
	fail("omptask", func() error {
		rt, err := omptask.NewOn(pool)
		if err != nil {
			return err
		}
		rt.Parallel(func(c *omptask.Ctx) {
			for i := 0; i < 8; i++ {
				i := i
				c.Task(func(*omptask.Ctx) {
					if i == 3 {
						panic(kaput)
					}
				})
			}
			c.Taskwait()
		})
		return rt.Close()
	})
	fail("cilkrt", func() error {
		rt, err := cilkrt.NewOn(pool)
		if err != nil {
			return err
		}
		rt.Run(func(c *cilkrt.Ctx) {
			for i := 0; i < 8; i++ {
				i := i
				c.Spawn(func(*cilkrt.Ctx) {
					if i == 5 {
						panic(kaput)
					}
				})
			}
			c.Sync()
		})
		return rt.Close()
	})
	fail("forkjoin", func() error {
		ctx, err := pool.NewContext(core.ContextConfig{})
		if err != nil {
			return err
		}
		h := forkjoin.On(ctx)
		h.ParallelFor(8, func(part int) {
			if part == 2 {
				panic(kaput)
			}
		})
		return ctx.Close()
	})

	wg.Wait()
	if t.Failed() {
		return
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}
