package core

import (
	"fmt"
	"runtime"
)

// ClosedError is the typed error returned for operations against a
// closed Pool or Context — submissions, barriers, context creation —
// replacing the panic the single-runtime API keeps for compatibility.
// Check for it with errors.As.
type ClosedError struct {
	// Entity is what was closed: "pool" or "context".
	Entity string
	// Op is the attempted operation, e.g. "Submit".
	Op string
}

func (e *ClosedError) Error() string {
	return fmt.Sprintf("core: %s on closed %s", e.Op, e.Entity)
}

// TaskError is the typed record of one task-body failure: a panic
// recovered by the executor, an error handed to Args.Fail, or an
// injected fault.  It is the context's sticky first error, so
// Barrier/WaitOn/Close return it; inspect with errors.As and unwrap
// Cause with errors.Is/As.
type TaskError struct {
	// Def is the task definition name, e.g. "boom".
	Def string
	// TaskID is the failing task's invocation order (graph node ID).
	TaskID int64
	// Ctx is the owning context's pool-wide ID.
	Ctx int
	// Worker is the worker identity that ran the failing body.
	Worker int
	// Cause is the failure itself: the error passed to Args.Fail, or a
	// wrapped panic value.
	Cause error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("core: task %s (#%d) failed on worker %d (ctx %d): %v",
		e.Def, e.TaskID, e.Worker, e.Ctx, e.Cause)
}

// Unwrap exposes the failure cause to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Cause }

// CanceledError is the typed error returned by Barrier, WaitOn, Submit
// and Close on a context that was aborted by Context.Cancel, its
// configured Deadline, or a pool Drain deadline.  Check for it with
// errors.As.
type CanceledError struct {
	// Ctx is the canceled context's pool-wide ID.
	Ctx int
	// Reason records what triggered the cancellation: "cancel",
	// "deadline" or "drain".
	Reason string
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: context %d canceled (%s)", e.Ctx, e.Reason)
}

// ConfigError is the typed error returned for invalid pool or context
// sizing (negative worker counts, exhausted context slots, and the
// like).
type ConfigError struct {
	// Field names the configuration field at fault.
	Field string
	// Value is the rejected value.
	Value int
	// Reason explains the constraint.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid %s = %d: %s", e.Field, e.Value, e.Reason)
}

// maxPoolSlots bounds the pool's total worker-identity space
// (MaxContexts + Workers); it exists to catch nonsense configurations,
// not to limit reasonable ones.
const maxPoolSlots = 4096

// resolveWorkers is the one place worker counts are defaulted: any
// non-positive count means "one per core", exactly as Config.Workers
// always has.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// validatePool is the one place pool sizing is validated and defaulted:
// Workers <= 0 selects one dedicated worker per core, MaxContexts == 0
// selects DefaultMaxContexts, and negative or absurd values are
// rejected with a ConfigError.
func validatePool(cfg PoolConfig) (PoolConfig, error) {
	if cfg.Workers < 0 {
		return cfg, &ConfigError{Field: "Workers", Value: cfg.Workers, Reason: "worker count must be >= 0"}
	}
	if cfg.Workers == 0 {
		cfg.Workers = resolveWorkers(0)
	}
	if cfg.MaxContexts < 0 {
		return cfg, &ConfigError{Field: "MaxContexts", Value: cfg.MaxContexts, Reason: "context slots must be >= 0"}
	}
	if cfg.MaxContexts == 0 {
		cfg.MaxContexts = DefaultMaxContexts
	}
	if cfg.MaxContexts+cfg.Workers > maxPoolSlots {
		return cfg, &ConfigError{
			Field: "MaxContexts", Value: cfg.MaxContexts,
			Reason: fmt.Sprintf("MaxContexts + Workers exceeds %d worker identities", maxPoolSlots),
		}
	}
	return cfg, nil
}
