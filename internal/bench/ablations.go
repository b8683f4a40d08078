package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hypermatrix"
	"repro/internal/kernels"
	"repro/internal/linalg"
)

// The ablations make the design decisions of DESIGN.md measurable: each
// switches off one mechanism the paper argues for and reports the cost.

// renameConfigs are the two arms the ablation compares: the pooled
// memory manager (default) and renaming disabled (hazards become edges).
var renameConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"pooled", core.Config{}},
	{"no-renaming", core.Config{DisableRenaming: true}},
}

// renameRun is one measured configuration: wall time plus the runtime
// counters snapshotted after the final barrier (when live renamed bytes
// must have drained to zero).
type renameRun struct {
	secs float64
	st   core.Stats
}

// runRenameWorkload measures body once under rtCfg.  All configurations
// run under the same bounded open-graph limit (the paper's §III graph
// size limit, as any production configuration would): it keeps the
// submitter a bounded window ahead of execution, which is what lets
// superseded renamed storage recycle into later rounds instead of the
// whole program being analyzed before a single task has completed.
func runRenameWorkload(threads int, rtCfg core.Config, body func(rt *core.Runtime)) renameRun {
	var out renameRun
	withProcs(threads, func() {
		rtCfg.Workers = threads
		if rtCfg.GraphLimit == 0 {
			rtCfg.GraphLimit = 256
		}
		rt := core.New(rtCfg)
		out.secs = timeIt(func() {
			body(rt)
			if err := rt.Barrier(); err != nil {
				panic(err)
			}
		})
		out.st = rt.Stats()
		rt.Close()
	})
	return out
}

// factorRounds runs `rounds` pipelined reset+factor passes over the
// same matrix with no intermediate barriers: every round's block resets
// arrive while the previous round's consumers may still be pending, so
// each reset renames instead of waiting — the version-churn pattern of
// the paper's §III renaming argument on a real factorization.
func factorRounds(al *linalg.Algos, flat []float32, nb, block, rounds int, factor func(al *linalg.Algos, a *hypermatrix.Matrix)) {
	a := hypermatrix.FromFlat(flat, nb, block)
	src := hypermatrix.FromFlat(flat, nb, block)
	for r := 0; r < rounds; r++ {
		al.ResetFrom(a, src)
		factor(al, a)
	}
}

// choleskyChurnStats runs the pipelined reset+Cholesky workload under
// rtCfg with the given tile provider and returns its measurement.
// Exposed to the acceptance tests, which assert on its counters.
func choleskyChurnStats(threads, dim, block, rounds int, rtCfg core.Config, p kernels.Provider) renameRun {
	flat := kernels.GenSPD(dim, 13)
	nb := dim / block
	return runRenameWorkload(threads, rtCfg, func(rt *core.Runtime) {
		al := linalg.New(rt, p, block)
		factorRounds(al, flat, nb, block, rounds,
			func(al *linalg.Algos, a *hypermatrix.Matrix) { al.CholeskyDense(a) })
	})
}

// AblationRenaming measures the version-lifecycle memory manager: the
// size-classed recycling pool, eager refcount-driven reclamation and
// copy elision against renaming disabled, over pipelined blocked
// Cholesky and LU rounds plus a synthetic version-churn loop.  The
// numbers to read are in the notes: "fresh-allocs" is the count of real
// heap allocations the renaming engine performed (PoolMisses), and live
// renamed bytes after the final barrier must be zero.
func AblationRenaming(cfg Config) *Result {
	cfg = cfg.Normalize()
	start := time.Now()
	r := &Result{
		ID:     "ablation-rename",
		Title:  "Renaming: pooled vs disabled (seconds, lower is better)",
		XLabel: "threads",
		YLabel: "seconds",
	}
	threads := cfg.MaxThreads
	dim, block := cfg.Dim, cfg.Block
	rounds := 4
	if cfg.Quick {
		rounds = 3
	}
	nb := dim / block

	note := func(wl, name string, run renameRun) {
		st := run.st
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s/%s: renames=%d fresh-allocs=%d pool-hits=%d elided=%d false-edges=%d live-bytes-after-barrier=%d",
			wl, name, st.Renames, st.PoolMisses, st.PoolHits, st.RenamesElided, st.Deps.FalseEdges, st.LiveRenamedBytes))
	}

	// Blocked Cholesky, pipelined reset+factor rounds.
	for _, c := range renameConfigs {
		run := choleskyChurnStats(threads, dim, block, rounds, c.cfg, cfg.provider())
		s := Series{Name: "cholesky " + c.name}
		s.add(float64(threads), run.secs)
		r.Series = append(r.Series, s)
		note("cholesky", c.name, run)
	}

	// Blocked LU (no pivoting), same churn structure.
	luflat := kernels.GenSPD(dim, 17)
	for _, c := range renameConfigs {
		run := runRenameWorkload(threads, c.cfg, func(rt *core.Runtime) {
			al := linalg.New(rt, cfg.provider(), block)
			factorRounds(al, luflat, nb, block, rounds,
				func(al *linalg.Algos, a *hypermatrix.Matrix) { al.LU(a) })
		})
		s := Series{Name: "lu " + c.name}
		s.add(float64(threads), run.secs)
		r.Series = append(r.Series, s)
		note("lu", c.name, run)
	}

	// Synthetic version churn: every refill overwrites a buffer a
	// pending reader still consumes, so each iteration renames (or,
	// with renaming disabled, serializes on the WAR edge).  All buffers
	// share one size class, the recycling pool's best case.
	nObj, iters, blockLen := 64, 96, 4096
	if cfg.Quick {
		nObj, iters, blockLen = 8, 12, 512
	}
	consume := core.NewTaskDef("churn_consume_t", func(a *core.Args) {
		x := a.F32(0)
		s := float32(0)
		for _, v := range x {
			s += v
		}
		if s != s { // keep the reduction observable
			panic("churn_consume_t: NaN in input")
		}
	})
	refill := core.NewTaskDef("churn_refill_t", func(a *core.Args) {
		x := a.F32(0)
		for i := range x {
			x[i] = float32(i)
		}
	})
	for _, c := range renameConfigs {
		run := runRenameWorkload(threads, c.cfg, func(rt *core.Runtime) {
			bufs := make([][]float32, nObj)
			for i := range bufs {
				bufs[i] = make([]float32, blockLen)
			}
			batch := rt.NewBatch()
			for it := 0; it < iters; it++ {
				for o := range bufs {
					batch.Add(consume, core.In(bufs[o]))
					batch.Add(refill, core.Out(bufs[o]))
				}
				if err := batch.Submit(); err != nil {
					panic(err)
				}
			}
		})
		s := Series{Name: "churn " + c.name}
		s.add(float64(threads), run.secs)
		r.Series = append(r.Series, s)
		note("churn", c.name, run)
	}

	r.Elapsed = time.Since(start)
	return r
}

// AblationScheduler compares the paper's locality scheduler against a
// single global FIFO queue (the SuperMatrix structure, §VII.C) on the
// dense Cholesky.
func AblationScheduler(cfg Config) *Result {
	cfg = cfg.Normalize()
	start := time.Now()
	r := &Result{
		ID:     "ablation-sched",
		Title:  fmt.Sprintf("Scheduler policy on Cholesky %d×%d (Gflop/s)", cfg.Dim, cfg.Dim),
		XLabel: "threads",
		YLabel: "Gflop/s",
	}
	flops := kernels.CholeskyFlops(cfg.Dim)
	spd := kernels.GenSPD(cfg.Dim, 13)
	nb := cfg.Dim / cfg.Block
	for _, policy := range []core.SchedulerKind{core.SchedLocality, core.SchedGlobalFIFO} {
		name := "locality"
		if policy == core.SchedGlobalFIFO {
			name = "global-fifo"
		}
		s := Series{Name: name}
		for _, t := range ThreadSweep(cfg.MaxThreads) {
			h := hypermatrix.FromFlat(spd, nb, cfg.Block)
			var secs float64
			withProcs(t, func() {
				rt := core.New(core.Config{Workers: t, Scheduler: policy})
				al := linalg.New(rt, cfg.provider(), cfg.Block)
				secs = timeIt(func() {
					al.CholeskyDense(h)
					if err := rt.Barrier(); err != nil {
						panic(err)
					}
				})
				rt.Close()
			})
			s.add(float64(t), flops/secs/1e9)
		}
		r.Series = append(r.Series, s)
	}
	r.Elapsed = time.Since(start)
	return r
}

// AblationRegions compares the §V.A array-region dependencies against
// whole-array directionality on Multisort, quantifying why the paper
// needed regions (or their representant workaround) for flat data.
func AblationRegions(cfg Config) *Result {
	cfg = cfg.Normalize()
	start := time.Now()
	r := &Result{
		ID:     "ablation-regions",
		Title:  fmt.Sprintf("Array regions vs whole-array deps, Multisort %d keys (seconds)", cfg.SortKeys),
		XLabel: "threads",
		YLabel: "seconds",
	}
	orig := randKeys(cfg.SortKeys, 21)
	scfg := sortCfgFor(cfg.SortKeys)
	for _, model := range []string{"smpss", "smpss-coarse"} {
		name := "regions"
		if model == "smpss-coarse" {
			name = "whole-array"
		}
		s := Series{Name: name}
		for _, t := range []int{1, cfg.MaxThreads} {
			s.add(float64(t), multisortSecs(model, t, orig, scfg))
		}
		r.Series = append(r.Series, s)
	}
	r.Elapsed = time.Since(start)
	return r
}

// AblationThrottle sweeps the open-graph limit on the dense Cholesky:
// too small throttles the discovery of distant parallelism, unlimited
// costs memory (the paper's §III names the graph size limit as one of
// the main thread's blocking conditions).
func AblationThrottle(cfg Config) *Result {
	cfg = cfg.Normalize()
	start := time.Now()
	r := &Result{
		ID:     "ablation-throttle",
		Title:  fmt.Sprintf("Open-graph limit on Cholesky %d×%d (Gflop/s at %d threads)", cfg.Dim, cfg.Dim, cfg.MaxThreads),
		XLabel: "limit",
		YLabel: "Gflop/s",
	}
	flops := kernels.CholeskyFlops(cfg.Dim)
	spd := kernels.GenSPD(cfg.Dim, 14)
	nb := cfg.Dim / cfg.Block
	s := Series{Name: "SMPSs+" + cfg.provider().Name + " tiles"}
	for _, limit := range []int{8, 64, 512, 4096, core.DefaultGraphLimit} {
		h := hypermatrix.FromFlat(spd, nb, cfg.Block)
		var secs float64
		withProcs(cfg.MaxThreads, func() {
			rt := core.New(core.Config{Workers: cfg.MaxThreads, GraphLimit: limit})
			al := linalg.New(rt, cfg.provider(), cfg.Block)
			secs = timeIt(func() {
				al.CholeskyDense(h)
				if err := rt.Barrier(); err != nil {
					panic(err)
				}
			})
			rt.Close()
		})
		s.add(float64(limit), flops/secs/1e9)
	}
	r.Series = append(r.Series, s)
	r.Elapsed = time.Since(start)
	return r
}
