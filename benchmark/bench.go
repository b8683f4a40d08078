package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
)

// Load shape: a closed loop with one submitting goroutine (the SMPSs
// single-submitter contract) on a long-lived runtime of `procs` threads,
// the main thread included.  Pool construction is set-up, not wall_s.
const (
	warmupReps = 2
	// setupRuns is how often the untraced pass sets a workload up; the
	// median set-up time is reported, so one page-fault storm does not
	// decide it.
	setupRuns = 5
	// minRepsPerSetup is the floor of timed repetitions on each instance
	// however short -seconds is: 25 in all.
	minRepsPerSetup = 5
	// tracedReps caps the traced pass: that many traced repetitions, each
	// paired with an untraced one for the overhead ratio.
	tracedReps    = 11
	minTracedReps = 3
	seqReps       = 5
)

// processStart approximates process start: package initialisation runs
// before main and after only the Go runtime's own start-up.
var processStart = time.Now()

// repSample is what one repetition measured.
type repSample struct {
	wall      time.Duration
	tasks     int64 // tasks submitted
	attempted int64 // tasks plus refused submissions
	failed    int64
	bytes     uint64 // MemStats.TotalAlloc delta over the timed region
	mallocs   uint64
	stats     core.Stats // delta over the repetition
}

// repetition runs one prepare/run/check cycle and accounts its ops.  A
// repetition whose run or output check fails counts every task as failed.
func repetition(w workload, tr *tracer) repSample {
	rt := w.runtime()
	w.prepare()
	runtime.GC()
	before := rt.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	span := tr.begin()
	start := time.Now()
	refused, err := w.run(tr)
	wall := time.Since(start)
	tr.end(spanRep, span)
	runtime.ReadMemStats(&m1)
	d := statsDelta(rt.Stats(), before)
	s := repSample{
		wall:      wall,
		tasks:     d.TasksSubmitted,
		attempted: d.TasksSubmitted + refused,
		failed:    refused + d.Failures + d.Poisoned + d.Canceled,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
		mallocs:   m1.Mallocs - m0.Mallocs,
		stats:     d,
	}
	if err == nil {
		err = w.check(d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: repetition failed:", err)
		s.failed = s.attempted
		// A latched task failure would fail every later Barrier too.
		rt.ClearErr()
	}
	return s
}

// statsDelta subtracts the counters the benchmark reads.
func statsDelta(a, b core.Stats) core.Stats {
	d := a
	d.TasksSubmitted -= b.TasksSubmitted
	d.TasksExecuted -= b.TasksExecuted
	d.Failures -= b.Failures
	d.Poisoned -= b.Poisoned
	d.Canceled -= b.Canceled
	d.Deps.Renames -= b.Deps.Renames
	d.Deps.RenamesElided -= b.Deps.RenamesElided
	d.Deps.RenameCopies -= b.Deps.RenameCopies
	d.Deps.PoolHits -= b.Deps.PoolHits
	d.Deps.PoolMisses -= b.Deps.PoolMisses
	d.Deps.TrueEdges -= b.Deps.TrueEdges
	d.Deps.FalseEdges -= b.Deps.FalseEdges
	d.Sched.Steals -= b.Sched.Steals
	d.Sched.StealBatches -= b.Sched.StealBatches
	d.Sched.Parks -= b.Sched.Parks
	d.Sched.Spills -= b.Sched.Spills
	return d
}

// setUp builds a workload instance and warms it up.  A warm-up whose
// output is wrong is an error: the timed numbers would mean nothing.
func setUp(sp spec, seed int64, procs int) (workload, error) {
	w := sp.build(seed, procs)
	for i := 0; i < warmupReps; i++ {
		if s := repetition(w, nil); s.failed != 0 {
			closeWorkload(w)
			return nil, fmt.Errorf("%s: warm-up repetition failed", sp.name)
		}
	}
	return w, nil
}

func closeWorkload(w workload) {
	if err := w.runtime().Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: closing runtime:", err)
	}
}

// tally sums the ops of the timed repetitions.
type tally struct{ attempted, failed int64 }

func (t *tally) add(s repSample) {
	t.attempted += s.attempted
	t.failed += s.failed
}

// measureEndToEnd is the untraced pass: the only source of gated numbers.
// start is when this workload's first set-up began (process start for
// the first workload of a process).
func measureEndToEnd(sp spec, cfg config, start time.Time) (workloadReport, error) {
	rep := workloadReport{Name: sp.name, Metrics: map[string]metric{}}
	// The timed repetitions are spread evenly over setupRuns instances, each
	// set up from scratch: where the allocator put the objects and where the
	// threads landed differ per instance and move the times by several
	// percent, so one instance per run would make runs disagree.
	var setups, walls, bytesPerTask []float64
	var ops tally
	var tasks int64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			start = time.Now()
		}
		w, err := setUp(sp, cfg.seed, cfg.procs)
		if err != nil {
			return rep, err
		}
		setups = append(setups, time.Since(start).Seconds())
		deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second / setupRuns)
		for n := 0; n < minRepsPerSetup || time.Now().Before(deadline); n++ {
			s := repetition(w, nil)
			ops.add(s)
			tasks = s.tasks
			walls = append(walls, s.wall.Seconds())
			bytesPerTask = append(bytesPerTask, float64(s.bytes)/float64(max(s.tasks, 1)))
		}
		closeWorkload(w)
		runtime.GC()
	}
	rep.Ops, rep.OpsFailed = ops.attempted, ops.failed
	wall := summarize(walls)
	rep.Metrics["wall_s"] = sampled("wall_s", wall)
	rep.Metrics["alloc_bytes_per_task"] = sampled("alloc_bytes_per_task", summarize(bytesPerTask))
	rep.Metrics["setup_s"] = sampled("setup_s", summarize(setups))
	// Reported, not gated.
	rep.Info = map[string]metric{
		"wall_hi_s":     value("wall_hi_s", wall.Hi),
		"tasks_per_s":   value("tasks_per_s", float64(tasks)/wall.Median),
		"setup_first_s": value("setup_first_s", setups[0]),
	}
	return rep, nil
}

// measureLayersOf is the traced pass.  Its wall times never reach a gated
// metric: they only give per-layer numbers and the tracing overhead.
func measureLayersOf(sp spec, cfg config) (workloadReport, *tracer, error) {
	rep := workloadReport{Name: sp.name, Metrics: map[string]metric{}}
	w, err := setUp(sp, cfg.seed, cfg.procs)
	if err != nil {
		return rep, nil, err
	}
	defer closeWorkload(w)

	var seqs []float64
	for i := 0; i < seqReps; i++ {
		seqs = append(seqs, w.sequential().Seconds())
	}
	seq := median(seqs)

	tr := newTracer()
	var plain, traced []repSample
	// Per traced repetition: what each span name added to the totals.
	var spans [][numSpanNames]int64
	var ops tally
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second / 2)
	for i := 0; i < tracedReps && (i < minTracedReps || time.Now().Before(deadline)); i++ {
		s := repetition(w, nil)
		ops.add(s)
		plain = append(plain, s)

		var before [numSpanNames]int64
		for n := range before {
			before[n], _ = tr.total(spanName(n))
		}
		tr.rep = int32(i)
		s = repetition(w, tr)
		ops.add(s)
		traced = append(traced, s)
		var d [numSpanNames]int64
		for n := range d {
			ns, _ := tr.total(spanName(n))
			d[n] = ns - before[n]
		}
		spans = append(spans, d)
	}
	rep.Ops, rep.OpsFailed = ops.attempted, ops.failed

	p := float64(cfg.procs)
	over := func(reps []repSample, f func(repSample) float64) float64 {
		var v []float64
		for _, s := range reps {
			v = append(v, f(s))
		}
		return median(v)
	}
	perRep := func(f func(i int) float64) float64 {
		var v []float64
		for i := range traced {
			v = append(v, f(i))
		}
		return median(v)
	}
	tasksOf := func(s repSample) float64 { return float64(max(s.tasks, 1)) }
	wallPlain := over(plain, func(s repSample) float64 { return s.wall.Seconds() })
	wallTraced := over(traced, func(s repSample) float64 { return s.wall.Seconds() })
	tasks := over(plain, tasksOf)
	kernelNs := func(i int) float64 {
		return float64(spans[i][spanGemm] + spans[i][spanSyrk] + spans[i][spanTrsm] + spans[i][spanPotrf])
	}

	set := func(name string, v float64) { rep.Metrics[name] = value(name, v) }
	set("core.submit_ns", perRep(func(i int) float64 { return float64(spans[i][spanSubmit]) / tasksOf(traced[i]) }))
	set("core.drain_s", perRep(func(i int) float64 { return float64(spans[i][spanBarrier]) / 1e9 }))
	set("core.allocs_per_task", over(plain, func(s repSample) float64 { return float64(s.mallocs) / tasksOf(s) }))
	// Time the workers spent outside task bodies.  Where the benchmark
	// cannot wrap the bodies (the apps' own), the sequential run stands
	// in for their summed time.
	if sp.ownsBodies {
		set("core.overhead_share", perRep(func(i int) float64 {
			return 1 - (float64(spans[i][spanBody])+kernelNs(i))/(float64(traced[i].wall)*p)
		}))
	} else {
		set("core.overhead_share", 1-seq/(wallPlain*p))
	}

	stat := func(name string, f func(core.Stats) float64) {
		set(name, over(plain, func(s repSample) float64 { return f(s.stats) }))
	}
	stat("deps.renames", func(s core.Stats) float64 { return float64(s.Deps.Renames) })
	stat("deps.renames_elided", func(s core.Stats) float64 { return float64(s.Deps.RenamesElided) })
	stat("deps.rename_copies", func(s core.Stats) float64 { return float64(s.Deps.RenameCopies) })
	stat("deps.true_edges", func(s core.Stats) float64 { return float64(s.Deps.TrueEdges) })
	stat("deps.false_edges", func(s core.Stats) float64 { return float64(s.Deps.FalseEdges) })
	stat("deps.pool_hit_ratio", func(s core.Stats) float64 {
		return ratio(s.Deps.PoolHits, s.Deps.PoolHits+s.Deps.PoolMisses)
	})
	stat("graph.edges_per_task", func(s core.Stats) float64 {
		return ratio(s.Deps.TrueEdges+s.Deps.FalseEdges, s.TasksSubmitted)
	})
	stat("sched.steals", func(s core.Stats) float64 { return float64(s.Sched.Steals) })
	stat("sched.steal_yield", func(s core.Stats) float64 { return ratio(s.Sched.Steals, s.Sched.StealBatches) })
	stat("sched.parks", func(s core.Stats) float64 { return float64(s.Sched.Parks) })
	stat("sched.spills", func(s core.Stats) float64 { return float64(s.Sched.Spills) })

	set("kernels.share", perRep(func(i int) float64 { return kernelNs(i) / (float64(traced[i].wall) * p) }))
	set("apps.tasks", tasks)
	set("apps.seq_s", seq)
	set("apps.mean_task_us", seq/tasks*1e6)
	// With one processor there is no parallel run to compare against.
	speedup := 0.0
	if cfg.procs > 1 {
		speedup = seq / wallPlain
	}
	set("apps.speedup_vs_seq", speedup)
	set("apps.efficiency", speedup/p)
	set("trace.overhead_ratio", wallTraced/wallPlain)

	layers := measureLayers(cfg.seed, kernels.ByName(providerName))
	for name, v := range layers {
		set(name, v)
	}
	if len(rep.Metrics) != len(perLayerUnits) {
		panic("benchmark: the traced pass did not report every per-layer metric")
	}

	// Reported where they apply; see README.
	rep.Info = map[string]metric{}
	if busy := perRep(func(i int) float64 { return kernelNs(i) / 1e9 }); busy > 0 {
		rep.Info["kernels.busy_s"] = value("kernels.busy_s", busy)
	}
	if sp.name == "chain_null" {
		// What the isolated layers on chain_null's path do not explain.
		// If this is large, a layer is missing from the model.
		isolated := layers["deps.analyze_inout_ns"] + layers["graph.insert_ns"] +
			layers["sched.pushpop_ns"] + layers["graph.complete1_ns"]
		rep.Info["unattributed_ns"] = value("unattributed_ns", wallPlain*1e9/tasks-isolated)
	}
	return rep, tr, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
