// ablation-models: the hypermatrix block-sparse LU workload under the
// model re-host.  Every frontend now runs as a tenant of a shared
// core.Pool, so the natural question is what hosting costs on an
// irregular, fill-in-allocating task graph: the experiment factors the
// same block-sparse matrix on a dedicated private runtime (the pre-host
// baseline) and on a shared pool through a hosted context per scheduler
// kind — the paper's locality scheduler with stealing and the central
// FIFO of the SuperMatrix/CellSs hosts.  Every point is verified exact
// against the sequential factorization.
package bench

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// AblationModels measures the block-sparse SparseLU program on a
// dedicated runtime versus hosted contexts of one shared pool.
func AblationModels(cfg Config) *Result {
	cfg = cfg.Normalize()
	start := time.Now()
	n, m, density := cfg.SparseLUBlocks, cfg.SparseLUBlock, 0.35
	r := &Result{
		ID:     "ablation-models",
		Title:  fmt.Sprintf("Hosted vs dedicated SparseLU, %d×%d blocks of %d×%d (speedup vs sequential)", n, n, m, m),
		XLabel: "threads",
		YLabel: "speedup",
	}
	input := apps.GenSparseLU(n, m, density, 5)

	seqH := input.Clone()
	seqSecs := timeIt(func() {
		if !apps.SparseLUSeq(seqH) {
			panic("ablation-models: sequential factorization failed")
		}
	})
	want := seqH.ToFlat()

	hosted := []struct {
		name  string
		sched core.SchedulerKind
	}{
		{"hosted-steal", core.SchedLocality},
		{"hosted-fifo", core.SchedGlobalFIFO},
	}

	dedicated := Series{Name: "dedicated"}
	series := make([]Series, len(hosted))
	for i, hv := range hosted {
		series[i] = Series{Name: hv.name}
	}
	for _, t := range ThreadSweep(cfg.MaxThreads) {
		// Dedicated: a private runtime owning its worker team, the only
		// hosting the runtime offered before the pool split.
		h := input.Clone()
		var secs float64
		withProcs(t, func() {
			rt := core.New(core.Config{Workers: t})
			secs = timeIt(func() {
				if err := apps.SparseLUSMPSs(rt.Context(), h); err != nil {
					panic(err)
				}
				if err := rt.Barrier(); err != nil {
					panic(err)
				}
			})
			rt.Close()
		})
		checkExact(h.ToFlat(), want, "ablation-models dedicated")
		dedicated.add(float64(t), seqSecs/secs)

		// Hosted: one tenant context on a shared pool, per scheduler.
		for i, hv := range hosted {
			h = input.Clone()
			withProcs(t, func() {
				pool, err := core.NewPool(core.PoolConfig{Workers: t, MaxContexts: 2})
				if err != nil {
					panic(err)
				}
				ctx, err := pool.NewContext(core.ContextConfig{Scheduler: hv.sched})
				if err != nil {
					panic(err)
				}
				secs = timeIt(func() {
					if err := apps.SparseLUSMPSs(ctx, h); err != nil {
						panic(err)
					}
					if err := ctx.Barrier(); err != nil {
						panic(err)
					}
				})
				if err := ctx.Close(); err != nil {
					panic(err)
				}
				if err := pool.Close(); err != nil {
					panic(err)
				}
			})
			checkExact(h.ToFlat(), want, "ablation-models "+hv.name)
			series[i].add(float64(t), seqSecs/secs)
		}
	}
	r.Series = append(r.Series, dedicated)
	r.Series = append(r.Series, series...)
	r.Notes = append(r.Notes,
		"every frontend is now hosted on the shared pool; this measures what the hosting substrate costs the SMPSs model itself",
		"results verified exact against the sequential factorization at every point")
	r.Elapsed = time.Since(start)
	return r
}
