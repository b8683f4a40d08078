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

// AblationTracker measures the dependency tracker's lock striping on a
// submission-heavy microbenchmark: many chains of deliberately tiny inout
// tasks, so tracker entry and ready-queue traffic dominate over compute.
//
// "global-tracker" runs with a single stripe (one global mutex);
// "sharded-tracker" with the default stripe count.  Everything else —
// scheduler, parking, Batch submission — is the shipped runtime on both
// arms.  Both sweep the worker count; the notes record a shard-count
// sweep at the maximum worker count.
func AblationTracker(cfg Config) *Result {
	cfg = cfg.Normalize()
	start := time.Now()
	objects, chain, block := 256, 128, 64
	if cfg.Quick {
		objects, chain = 64, 16
	}
	total := objects * chain
	r := &Result{
		ID:     "ablation-tracker",
		Title:  fmt.Sprintf("Sharded tracker vs global lock, %d×%d-task chains (ktasks/s)", objects, chain),
		XLabel: "threads",
		YLabel: "ktasks/s",
	}

	// Three-parameter tasks (axpy-like: two read inputs, one inout
	// accumulator), so one tracker entry covers three accesses.
	churn := core.NewTaskDef("churn_t", func(a *core.Args) {
		x, y, acc := a.F32(0), a.F32(1), a.F32(2)
		for i := range acc {
			acc[i] = acc[i]*1.0001 + x[i] + y[i]
		}
	})
	// run returns throughput in thousands of tasks per second with the
	// given tracker stripe count (0 selects the default).
	run := func(threads, shards int) float64 {
		// Per-chain inputs: sharing read inputs across chains would make
		// every task append to a few giant reader lists whose pruning
		// cost depends on execution order, drowning the structural
		// difference under an artifact of the workload.
		accs := make([][]float32, objects)
		xs := make([][]float32, objects)
		ys := make([][]float32, objects)
		for i := range accs {
			accs[i] = make([]float32, block)
			xs[i] = make([]float32, block)
			ys[i] = make([]float32, block)
		}
		// Best of three: tiny-task timings on a loaded machine are
		// dominated by preemption noise, and the least-disturbed run is
		// the one that reflects the runtime's structural cost.
		best := 0.0
		for rep := 0; rep < 3; rep++ {
			var secs float64
			withProcs(threads, func() {
				rt := core.New(core.Config{Workers: threads, TrackerShards: shards})
				secs = timeIt(func() {
					batch := rt.NewBatch()
					for o, b := range accs {
						for k := 0; k < chain; k++ {
							batch.Add(churn,
								core.In(xs[o]), core.In(ys[o]), core.InOut(b))
						}
						if err := batch.Submit(); err != nil {
							panic(err)
						}
					}
					if err := rt.Barrier(); err != nil {
						panic(err)
					}
				})
				rt.Close()
			})
			if tput := float64(total) / secs / 1e3; tput > best {
				best = tput
			}
		}
		return best
	}

	global := Series{Name: "global-tracker"}
	sharded := Series{Name: "sharded-tracker"}
	for _, t := range ThreadSweep(cfg.MaxThreads) {
		global.add(float64(t), run(t, 1))
		sharded.add(float64(t), run(t, 0))
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d chains × %d tasks of %d-float axpy; global = 1 tracker stripe, sharded = default stripe count; same scheduler, parking and Batch submission on both", objects, chain, block))
	r.Series = append(r.Series, global, sharded)

	// Shard-count sweep at full thread count.
	maxShards := 16
	if cfg.Quick {
		maxShards = 8
	}
	for shards := 1; shards <= maxShards; shards *= 2 {
		tput := run(cfg.MaxThreads, shards)
		r.Notes = append(r.Notes,
			fmt.Sprintf("%2d shard(s) at %d threads: %.1f ktasks/s", shards, cfg.MaxThreads, tput))
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
