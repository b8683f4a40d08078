package core

import (
	"time"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// SchedulerKind selects the ready-task scheduling policy.
type SchedulerKind int

const (
	// SchedLocality is the paper's scheduler (§III): per-worker ready
	// lists consumed LIFO, a main FIFO list, a high-priority list, and
	// FIFO work-stealing in creation order.
	SchedLocality SchedulerKind = iota
	// SchedGlobalFIFO is the ablation policy: one central FIFO queue,
	// the structure of SuperMatrix (paper §VII.C).
	SchedGlobalFIFO
)

// LocalityConfig gates the scheduler's locality layer: the paper's
// cache-affinity placement (§III) rebuilt on top of the work-stealing
// mux instead of the seed's locality lists.  The zero value keeps the
// plain work-stealing behavior as the measured baseline.
type LocalityConfig struct {
	// Affinity records, at dependency-analysis time, the worker that
	// last wrote each accessed version; a task that is ready at
	// submission is then pushed to that worker's deque — where its
	// operands are plausibly still cache-hot — instead of the shared
	// injector, and a push wakes the hinted worker when it is parked.
	// Tasks released by a completion are unaffected (they already land
	// on the releasing worker's deque).
	Affinity bool
	// ChainDepth bounds inline successor chaining: when a completing
	// task releases exactly one ready successor, the executing worker
	// runs it directly — bypassing the deques, the wake protocol, and
	// any thief — keeping the produced operands in cache.  At most
	// ChainDepth successors chain per task popped from the scheduler;
	// zero or negative disables chaining.  Chains yield to queued
	// high-priority work.
	ChainDepth int
}

// DefaultGraphLimit is the open-task ceiling applied when Config.GraphLimit
// is zero.  When the graph grows past it, the submitting thread behaves as
// a worker until the graph shrinks — the paper's "graph size limit"
// blocking condition (§III).
const DefaultGraphLimit = 16384

// Config parameterizes a Runtime.
type Config struct {
	// Workers is the total number of threads executing tasks, counting
	// the main thread (which contributes whenever it blocks).  Zero
	// means runtime.GOMAXPROCS(0).
	Workers int
	// Scheduler selects the scheduling policy; default SchedLocality.
	Scheduler SchedulerKind
	// Locality gates the scheduler's locality layer (affinity hints and
	// successor chaining); the zero value keeps plain work stealing.
	Locality LocalityConfig
	// DisableRenaming turns off the renaming engine, materializing
	// WAR/WAW hazards as real edges (ablation).
	DisableRenaming bool
	// GraphLimit bounds the number of open (submitted, not completed)
	// tasks before Submit throttles.  Zero selects DefaultGraphLimit;
	// negative disables throttling.
	GraphLimit int
	// MemoryLimit bounds the bytes of renamed storage belonging to
	// tasks that have not completed yet; when exceeded, the submitting
	// thread executes tasks until renamed memory is released — the
	// paper's "memory limit" blocking condition (§III).  Zero disables
	// the limit.
	MemoryLimit int64
	// Tracer, when non-nil, records task lifecycle events.
	Tracer *trace.Tracer
	// Recorder, when non-nil, retains the full task graph for export
	// (Fig. 5).  Recording is unbounded; use it for analysis runs only.
	Recorder *graph.Recorder
	// OnFailure selects the fate of a failed task's dependents:
	// FailContinue (default, run them anyway) or FailPoison (skip and
	// count them).
	OnFailure FailurePolicy
	// Deadline, when positive, cancels the runtime's context that long
	// after creation (see ContextConfig.Deadline).
	Deadline time.Duration
}

// contextConfig extracts the per-context half of a Config.
func (cfg Config) contextConfig() ContextConfig {
	return ContextConfig{
		Scheduler:       cfg.Scheduler,
		Locality:        cfg.Locality,
		DisableRenaming: cfg.DisableRenaming,
		GraphLimit:      cfg.GraphLimit,
		MemoryLimit:     cfg.MemoryLimit,
		Tracer:          cfg.Tracer,
		Recorder:        cfg.Recorder,
		OnFailure:       cfg.OnFailure,
		Deadline:        cfg.Deadline,
	}
}

// Stats is a snapshot of runtime activity counters.
type Stats struct {
	// TasksSubmitted and TasksExecuted count task instances.
	TasksSubmitted int64
	TasksExecuted  int64
	// Deps is the dependency tracker's view (edges, renames, objects).
	Deps deps.Stats
	// Sched is the scheduler's view (queue destinations, steals).
	Sched sched.Stats
	// SyncBackCopies counts renamed objects copied back to user storage
	// at barriers.
	SyncBackCopies int64
	// MainHelped counts tasks the main thread executed while blocked.
	MainHelped int64

	// Memory-manager view of the rename lifecycle.  Renames mirrors
	// Deps.Renames for at-a-glance access; RenamesElided counts writes
	// that proved their hazard dead and proceeded in place; PoolHits
	// and PoolMisses split renames into recycled vs. freshly allocated
	// instances (PoolMisses is the number of real allocations);
	// LiveRenamedBytes is the renamed storage currently alive — zero
	// after a barrier on a fully-drained graph.
	Renames          int64
	RenamesElided    int64
	PoolHits         int64
	PoolMisses       int64
	LiveRenamedBytes int64

	// Failure-domain view.  Failures counts task bodies that panicked
	// or called Args.Fail; Poisoned counts dependents skipped under
	// OnFailure: FailPoison; Canceled counts tasks drained as skips
	// after Cancel/Deadline/Drain.  Skipped tasks are not in
	// TasksExecuted.
	Failures int64
	Poisoned int64
	Canceled int64
}

// Runtime is one private SMPSs runtime instance: the single-tenant view
// of the Pool/Context split, kept as the original programming interface.
// It owns a private pool (its dedicated workers) plus one context (the
// task graph, dependency tracker and throttle state); everything it did
// before the multi-tenant refactor it still does, with identical worker
// numbering — main thread 0, dedicated workers 1..Workers-1.
//
// The SMPSs model is single-submitter: the main program (one goroutine)
// calls Submit, Barrier and WaitOn; task bodies run on the runtime's
// workers and must not submit tasks themselves (the paper's runtime
// treats task calls inside tasks as plain function calls — do the same by
// calling the body function directly).  Programs that want many
// concurrent submitters use a shared Pool with one Context per client
// instead of many Runtimes.
type Runtime struct {
	cfg  Config
	pool *Pool
	ctx  *Context
}

// New creates and starts a runtime.  The caller must eventually call
// Close to release the worker goroutines.
func New(cfg Config) *Runtime {
	cfg.Workers = resolveWorkers(cfg.Workers)
	// One submitter slot (the main thread, worker 0) plus Workers-1
	// dedicated workers reproduces the seed's thread layout exactly.
	pool := newPool(PoolConfig{Workers: cfg.Workers - 1, MaxContexts: 1})
	ctx, err := pool.NewContext(cfg.contextConfig())
	if err != nil {
		// A fresh single-slot pool cannot refuse its first context.
		panic(err)
	}
	return &Runtime{cfg: cfg, pool: pool, ctx: ctx}
}

// Workers returns the configured total thread count.
func (rt *Runtime) Workers() int { return rt.cfg.Workers }

// Context returns the runtime's single context, the handle shared-pool
// programs use directly.
func (rt *Runtime) Context() *Context { return rt.ctx }

// Stats returns a snapshot of the runtime's counters.
func (rt *Runtime) Stats() Stats {
	st := rt.ctx.Stats()
	// The pool is private, so its parking counters belong to this
	// runtime's snapshot just as before the pool/context split.
	ps := rt.pool.Stats()
	st.Sched.Parks, st.Sched.Unparks = ps.Parks, ps.Unparks
	return st
}

// Err returns the first task failure observed — a *TaskError — or nil.
// The latch is sticky and identical to Context.Err: it survives
// Barrier and is returned by every later Barrier/WaitOn/Close until
// ClearErr.
func (rt *Runtime) Err() error { return rt.ctx.Err() }

// ClearErr clears the sticky task-failure latch (see Context.ClearErr).
func (rt *Runtime) ClearErr() { rt.ctx.ClearErr() }

// Cancel aborts the runtime's context exactly as Context.Cancel: tasks
// not yet started drain as canceled skips and Barrier/WaitOn/Close
// return a *CanceledError.  Safe to call from any goroutine.
func (rt *Runtime) Cancel() { rt.ctx.Cancel() }

// liveRenamedBytes is the context's memory-limit gauge (kept on the
// wrapper for the white-box tests that probe it).
func (rt *Runtime) liveRenamedBytes() int64 { return rt.ctx.liveRenamedBytes() }

// Submit invokes a task: the runtime analyzes each parameter's
// directionality against the current state of its data, adds the task to
// the graph with its true dependencies, and schedules it as soon as they
// are satisfied.  Submit returns immediately unless the open-graph limit
// is reached, in which case the calling thread executes tasks until the
// graph shrinks (paper §III: "a memory limit, or a graph size limit").
func (rt *Runtime) Submit(def *TaskDef, args ...Arg) {
	if rt.ctx.Closed() {
		panic("core: Submit on closed runtime")
	}
	//lint:allow submiterr void seed API like css_submit; refusal surfaces via Err at the barrier
	rt.ctx.Submit(def, args...)
}

// batchCall is one recorded invocation inside a Batch: the definition
// plus the span of the batch's argument arena holding its arguments.
type batchCall struct {
	def    *TaskDef
	lo, hi int
}

// Batch accumulates task invocations and submits them in one go,
// reusing its internal storage across rounds so a steady submission
// loop allocates nothing per task: Batch.Add copies arguments into one
// growing arena.  Producers with tight submission loops — blocked linear
// algebra, parameter sweeps — use it to keep the main thread ahead of
// the workers.
//
// A Batch belongs to its context's submitting thread (the SMPSs model
// is single-submitter) and must not be shared.
type Batch struct {
	c     *Context
	calls []batchCall
	args  []Arg
	// panicClosed preserves the Runtime API's historical behavior: a
	// batch obtained from Runtime.NewBatch panics on Submit after Close
	// (like Runtime.Submit), while a Context batch reports the typed
	// ClosedError.
	panicClosed bool
}

// NewBatch creates an empty reusable batch bound to the runtime.
func (rt *Runtime) NewBatch() *Batch {
	b := rt.ctx.NewBatch()
	b.panicClosed = true
	return b
}

// Add records one task invocation in the batch.
func (b *Batch) Add(def *TaskDef, args ...Arg) {
	lo := len(b.args)
	b.args = append(b.args, args...)
	b.calls = append(b.calls, batchCall{def: def, lo: lo, hi: len(b.args)})
}

// Len returns the number of recorded invocations.
func (b *Batch) Len() int { return len(b.calls) }

// Submit submits every recorded invocation in order and resets the
// batch for reuse, equivalent to calling Submit once per invocation with
// the admission check paid once.  Dependencies between tasks of the same
// batch resolve exactly as they would across separate Submit calls, and
// each task is released to the scheduler as soon as its own analysis
// completes (earlier elements can be executing while later ones are
// still being analyzed).  A closed context refuses with a ClosedError
// and a canceled one with its CanceledError (nothing is submitted then,
// but the batch is still reset).
func (b *Batch) Submit() error {
	c := b.c
	if b.panicClosed && c.Closed() {
		panic("core: Batch.Submit on closed runtime")
	}
	err := c.admit("Batch.Submit")
	if err == nil {
		for _, call := range b.calls {
			c.throttle()
			c.submitOne(call.def, b.args[call.lo:call.hi])
		}
	}
	b.calls = b.calls[:0]
	// Drop the data references so batch reuse does not pin user arrays.
	clear(b.args)
	b.args = b.args[:0]
	return err
}

// Barrier blocks until every submitted task has completed, with the main
// thread behaving as a worker in the meantime (paper §III).  On return,
// any data whose current contents live in renamed storage have been
// copied back to the variables the program named, and the first task
// failure (if any) is returned.  The failure stays latched across
// barriers — this call never resets it; use ClearErr to resume after a
// handled failure.  The contract is identical to Context.Barrier.
func (rt *Runtime) Barrier() error { return rt.ctx.Barrier() }

// WaitOn blocks until all pending writers of data have completed,
// helping to execute tasks meanwhile, then makes the current contents
// visible in data (copying back from renamed storage if needed).  It is
// the equivalent of the CellSs/SMPSs wait-on primitive: after WaitOn the
// main program may read data without a full barrier.
func (rt *Runtime) WaitOn(data any) error { return rt.ctx.WaitOn(data) }

// WaitOnRegion is WaitOn restricted to a region of data.  Note that if
// the object was renamed (whole-object writes), the sync-back copies the
// entire object.
func (rt *Runtime) WaitOnRegion(data any, r Region) error { return rt.ctx.WaitOnRegion(data, r) }

// Close waits for all outstanding work (an implicit barrier), then stops
// the worker threads.  The runtime must not be used afterwards.
func (rt *Runtime) Close() error {
	err := rt.ctx.Close()
	if perr := rt.pool.Close(); err == nil {
		err = perr
	}
	return err
}

// Run is a convenience wrapper: it creates a runtime, invokes body with
// it, and closes it, returning the first error from tasks or from body.
func Run(cfg Config, body func(rt *Runtime) error) error {
	rt := New(cfg)
	bodyErr := body(rt)
	closeErr := rt.Close()
	if bodyErr != nil {
		return bodyErr
	}
	return closeErr
}
