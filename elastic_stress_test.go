package repro_test

// Elastic stress: grow/shrink churn under continuous multi-tenant
// submission.  The pool scales between one worker and its ceiling while
// all six hosted programming models run their equivalence programs in
// bursts, so workers retire (spilling deques, releasing scratch,
// rescaling the rename store) and unretire in the middle of live
// dependency graphs.  Every tenant must still reproduce the sequential
// interpreter bit for bit, account for every submitted task, and leave
// zero renamed bytes live.  CI runs this file under -race with
// GOMAXPROCS=4 and -count=2.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/topo"
)

// TestElasticMultiTenantChurn runs three bursts of the six-model
// equivalence workload on one elastic, topology-aware pool, with idle
// gaps between bursts long enough for the hysteresis to park workers.
// The bursts force grows, the gaps force shrinks, and the scaling must
// be invisible to every tenant's results.
func TestElasticMultiTenantChurn(t *testing.T) {
	const (
		minW   = 1
		maxW   = 6
		maxCtx = 8
		rounds = 3
	)
	pool, err := core.NewPool(core.PoolConfig{
		MinWorkers:    minW,
		MaxWorkers:    maxW,
		MaxContexts:   maxCtx,
		ScaleInterval: 100 * time.Microsecond,
		// Two synthetic groups over the full identity space: steal
		// traffic prefers group-local victims while the team breathes.
		Topology: topo.Split(maxCtx+maxW, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i, tn := range equivTenants {
			ops := genEquivProgram(int64(round*100 + i + 1))
			want := runSequential(ops)
			wg.Add(1)
			go func(tn equivTenant, ops []equivOp, want [][]float32) {
				defer wg.Done()
				got, err := tn.run(pool, ops)
				if err != nil {
					t.Errorf("round %d %s: %v", round, tn.name, err)
					return
				}
				if d := equivDiff(got, want); d != "" {
					t.Errorf("round %d %s: %s", round, tn.name, d)
				}
			}(tn, ops, want)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Idle gap: > shrinkAfter samples at 100µs, so the controller
		// walks the team back toward the floor before the next burst.
		time.Sleep(20 * time.Millisecond)
	}

	st := pool.Stats()
	if st.Grows == 0 {
		t.Errorf("elastic churn never grew the team (Grows = 0)")
	}
	if st.Shrinks == 0 {
		t.Errorf("elastic churn never shrank the team (Shrinks = 0)")
	}
	if st.ActiveWorkersHigh <= minW {
		t.Errorf("ActiveWorkersHigh = %d, want > %d", st.ActiveWorkersHigh, minW)
	}
	if st.ActiveWorkersLow != minW {
		t.Errorf("ActiveWorkersLow = %d, want %d", st.ActiveWorkersLow, minW)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestElasticAccountsEveryTask is the no-lost-tasks invariant under
// scaling churn: SMPSs tenants submit continuously while the team
// breathes, one tenant is canceled mid-flight, and for every tenant
// executed + poisoned + canceled must equal submitted with zero live
// renamed bytes after its drain.
func TestElasticAccountsEveryTask(t *testing.T) {
	const tenants = 4
	pool, err := core.NewPool(core.PoolConfig{
		MinWorkers:    1,
		MaxWorkers:    4,
		MaxContexts:   tenants,
		ScaleInterval: 100 * time.Microsecond,
	})
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
	for i, c := range ctxs {
		ops := genEquivProgram(int64(900 + i))
		wg.Add(1)
		go func(i int, c *core.Context, ops []equivOp) {
			defer wg.Done()
			bufs := freshBuffers()
			// Submit in paced slices so the load crosses the grow
			// threshold repeatedly instead of arriving as one burst.
			for lo := 0; lo < len(ops); lo += 50 {
				hi := lo + 50
				if hi > len(ops) {
					hi = len(ops)
				}
				if err := equivSubmitCore(c, ops[lo:hi], bufs); err != nil {
					// The canceled tenant's submissions start failing;
					// fall through to Barrier, which still drains the
					// already-queued work as canceled skips.
					break
				}
				time.Sleep(500 * time.Microsecond)
			}
			errs[i] = c.Barrier()
		}(i, c, ops)
	}
	time.Sleep(5 * time.Millisecond)
	ctxs[0].Cancel() // one tenant aborts while the team is churning
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

// TestElasticChaosShrinkWindow arms the shrink fault site — a seeded
// delay between a retiring worker leaving the live set and evicting its
// deque — together with dropped wakes and steal delays, and runs the
// six-model workload on an aggressively breathing pool.  The widened
// retirement window is exactly where affinity redirects, eviction
// spills and wake hand-offs race; every tenant must stay bit-identical.
func TestElasticChaosShrinkWindow(t *testing.T) {
	chaos.Install(chaos.New(chaos.Config{
		Seed: 0xE1A5,
		Rates: map[chaos.Site]float64{
			chaos.SiteShrink:     1.0,
			chaos.SiteWakeDrop:   0.3,
			chaos.SiteStealDelay: 0.1,
		},
		Delay: 100 * time.Microsecond,
	}))
	defer chaos.Uninstall()

	pool, err := core.NewPool(core.PoolConfig{
		MinWorkers:    1,
		MaxWorkers:    6,
		MaxContexts:   8,
		ScaleInterval: 50 * time.Microsecond,
		Topology:      topo.Split(14, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, tn := range equivTenants {
		ops := genEquivProgram(int64(500 + i))
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
		return
	}
	if err := pool.Drain(time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
