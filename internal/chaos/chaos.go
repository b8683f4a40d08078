// Package chaos is the runtime's deterministic fault-injection harness:
// named injection sites compiled into the hot paths of the scheduler,
// the dependency tracker and the task executor, each a single atomic
// pointer load when no injector is installed.
//
// Determinism is the point.  An injector decides every fault from a
// stateless hash of (seed, site, key), where the key is a stable
// identity of the decision point — context id and task id for task
// faults — rather than from a shared RNG stream.  Two runs with the
// same seed therefore inject the same faults into the same tasks no
// matter how the pool's workers interleave, which is what lets the
// chaos stress test assert exact outcomes under -race.
//
// Sites that cannot corrupt results (steal delays, dropped affinity
// wakes, rename-storage exhaustion) exercise fallback paths and timing
// windows; sites that can (task panic/error) are confined to the
// contexts the injector was aimed at, so co-tenants of a shared pool
// stay bit-identical to a sequential run.
package chaos

import (
	"sync/atomic"
	"time"
)

// Site names one injection point in the runtime.
type Site uint8

// Injection sites.  The task-body sites key on (context, task) and are
// filtered by the injector's context set; the machinery sites are
// pool-wide and, by construction, correctness-neutral.
const (
	// SiteTaskPanic panics inside a task body before the user function
	// runs (exercises the executor's recover → TaskError path).
	SiteTaskPanic Site = iota
	// SiteTaskError fails the task with an injected error, as if the
	// body had called Args.Fail (exercises the structured-failure path).
	SiteTaskError
	// SiteTaskDelay sleeps inside the task body, widening completion /
	// cancellation / steal races.
	SiteTaskDelay
	// SiteStealDelay sleeps on the scheduler's steal path, between a
	// worker finding its own queues empty and raiding a victim.
	SiteStealDelay
	// SiteRenameExhaust forces a rename-storage acquisition to bypass
	// the recycling free lists (a simulated exhausted pool: every hit
	// becomes a fresh allocation).
	SiteRenameExhaust
	// SiteWakeDrop drops the affinity-targeted wake on the mux push
	// path, forcing the generic unpark fallback to cover for it.
	SiteWakeDrop

	// NumSites is the number of defined sites.
	NumSites = int(SiteWakeDrop) + 1
)

// String returns the site's name.
func (s Site) String() string {
	switch s {
	case SiteTaskPanic:
		return "task-panic"
	case SiteTaskError:
		return "task-error"
	case SiteTaskDelay:
		return "task-delay"
	case SiteStealDelay:
		return "steal-delay"
	case SiteRenameExhaust:
		return "rename-exhaust"
	case SiteWakeDrop:
		return "wake-drop"
	}
	return "site(?)"
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every fault decision; same seed, same faults.
	Seed uint64
	// Rates maps each site to its fault probability in [0, 1].  Sites
	// absent from the map never fire.
	Rates map[Site]float64
	// Delay is the sleep applied when a delay site fires.
	Delay time.Duration
	// Ctxs restricts the task-body sites (panic, error, delay) to the
	// given context ids; nil means every context.  The machinery sites
	// are pool-wide regardless — they cannot corrupt any tenant.
	Ctxs map[int]bool
}

// Injector is one armed fault configuration.  All methods are safe for
// concurrent use; decisions are pure functions of (seed, site, key)
// plus the per-site counters recording what actually fired.
type Injector struct {
	seed  uint64
	thr   [NumSites]uint64 // fire when hash < threshold
	delay time.Duration
	ctxs  map[int]bool
	fired [NumSites]atomic.Int64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	inj := &Injector{seed: cfg.Seed, delay: cfg.Delay, ctxs: cfg.Ctxs}
	for s, r := range cfg.Rates {
		if r <= 0 {
			continue
		}
		if r >= 1 {
			inj.thr[s] = ^uint64(0)
			continue
		}
		inj.thr[s] = uint64(r * float64(1<<63) * 2)
	}
	return inj
}

// Fired returns how many times the site actually fired.
func (inj *Injector) Fired(s Site) int64 { return inj.fired[s].Load() }

// splitmix64 is the finalizer of the splitmix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// decide is the stateless fault decision for (site, key).
func (inj *Injector) decide(s Site, key uint64) bool {
	t := inj.thr[s]
	if t == 0 {
		return false
	}
	if splitmix64(inj.seed^splitmix64(uint64(s)+1)^key) >= t {
		return false
	}
	inj.fired[s].Add(1)
	return true
}

// TaskKey builds the stable decision key for a task-body site.
func TaskKey(ctx int, taskID int64) uint64 {
	return uint64(ctx)<<40 ^ uint64(taskID)
}

// allowsCtx reports whether the injector's task-body sites target ctx.
func (inj *Injector) allowsCtx(ctx int) bool {
	return inj.ctxs == nil || inj.ctxs[ctx]
}

// injectedPanic is the payload of a SiteTaskPanic so tests can
// recognize harness-made panics in the recovered error.
const injectedPanic = "chaos: injected task panic"

// InjectedError is the error a SiteTaskError fault fails the task with.
type InjectedError struct {
	Ctx    int
	TaskID int64
}

func (e *InjectedError) Error() string { return "chaos: injected task error" }

// active is the installed injector; nil (the steady state) disarms
// every site down to one atomic pointer load.
var active atomic.Pointer[Injector]

// Install arms inj process-wide; Uninstall disarms.  Tests install an
// injector for one run and must uninstall before the next.
func Install(inj *Injector) { active.Store(inj) }

// Uninstall disarms all sites.
func Uninstall() { active.Store(nil) }

// Active returns the installed injector, or nil.
func Active() *Injector { return active.Load() }

// TaskBody is the task-executor hook, called with the owning context
// and task identity immediately before the user function.  It may sleep
// (SiteTaskDelay), panic (SiteTaskPanic — caught by the executor's
// existing recovery) or return a non-nil error the executor records as
// the task's failure (SiteTaskError).  Nil injector: one pointer load.
func TaskBody(ctx int, taskID int64) error {
	inj := active.Load()
	if inj == nil || !inj.allowsCtx(ctx) {
		return nil
	}
	key := TaskKey(ctx, taskID)
	if inj.decide(SiteTaskDelay, key) && inj.delay > 0 {
		time.Sleep(inj.delay)
	}
	if inj.decide(SiteTaskPanic, key) {
		panic(injectedPanic)
	}
	if inj.decide(SiteTaskError, key) {
		return &InjectedError{Ctx: ctx, TaskID: taskID}
	}
	return nil
}

// StealDelay is the scheduler hook on the steal path.  The key is the
// thief's identity: the site perturbs timing, never results, so it
// needs no interleaving-independent key.
func StealDelay(self int) {
	inj := active.Load()
	if inj == nil {
		return
	}
	if inj.decide(SiteStealDelay, uint64(self)) && inj.delay > 0 {
		time.Sleep(inj.delay)
	}
}

// ExhaustRename reports whether a rename-storage acquisition must skip
// the recycling free lists (simulated pool exhaustion); bytes keys the
// decision per size class.
func ExhaustRename(bytes int64) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	return inj.decide(SiteRenameExhaust, uint64(bytes))
}

// DropWake reports whether the affinity-targeted wake for worker slot
// must be dropped (the caller's generic unpark fallback then covers
// the push, which is exactly the invariant under test).
func DropWake(slot int) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	return inj.decide(SiteWakeDrop, uint64(slot))
}
