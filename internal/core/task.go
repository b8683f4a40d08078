package core

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"

	"repro/internal/graph"
)

// taskKinds hands out one stable small integer per task definition, used
// to color task-graph exports and aggregate trace statistics.
var taskKinds atomic.Int64

// TaskDef is a task declaration: the Go equivalent of a function carrying
// a "#pragma css task" annotation (paper §II).  Define one per task type
// and reuse it for every invocation.
type TaskDef struct {
	// Name is the task's function name, e.g. "sgemm_t".
	Name string
	// Fn is the task body.  It receives accessors for the effective
	// parameter storage; it must not retain them past its return and
	// must touch parameter data only as declared by its directionality.
	Fn func(*Args)
	// HighPriority corresponds to the paper's "highpriority" clause: the
	// task is scheduled as soon as it becomes ready, bypassing the
	// locality lists.
	HighPriority bool

	kind int
}

// NewTaskDef declares a task.
func NewTaskDef(name string, fn func(*Args)) *TaskDef {
	return &TaskDef{Name: name, Fn: fn, kind: int(taskKinds.Add(1))}
}

// NewHighPriorityTaskDef declares a task carrying the highpriority clause.
func NewHighPriorityTaskDef(name string, fn func(*Args)) *TaskDef {
	d := NewTaskDef(name, fn)
	d.HighPriority = true
	return d
}

// Kind returns the definition's stable small-integer identity.
func (d *TaskDef) Kind() int { return d.kind }

// boundArg is one argument after dependency analysis: the effective
// storage the task must use (which may be a renamed instance) plus the
// source of the deferred seed copy for renamed inout parameters.
type boundArg struct {
	kind  argKind
	vkind valueKind
	// bits is a Value argument, widened to eight bytes as vkind says.
	bits uint64
	// instance is the effective storage of a data argument, the value of
	// an opaque one, a nil pointer to the type of a Value one.
	instance any
	copyFrom any
}

// taskRec is everything the runtime keeps per task, in one object: the
// graph node (whose Payload points back at the record), the bound
// arguments, the Args handed to the body, and inline room for the
// first arguments, successors and version holds.  The context pointer
// routes a task popped by a shared pool worker back to its owning
// tenant's accounting.  Records are recycled through the context's free
// list (Context.freeRec), so nothing here may be referenced once exec
// has freed the record.
type taskRec struct {
	node graph.Node
	// arg0 is inline room for the first arguments.  It follows the node so
	// that the first argument ends inside the node's last cache line: a
	// one-argument task then touches six of the record's eight lines, as
	// it did when a bound argument was a word shorter.
	arg0 [4]boundArg
	def  *TaskDef
	ctx  *Context
	// args starts out backed by arg0 and keeps whatever backs it, a
	// spill included, across the record's lives.
	args []boundArg
	// body is what the task body receives; it lives here because the
	// pointer handed to TaskDef.Fn escapes.
	body Args
	room graph.Room
}

// Args gives a task body access to its effective parameters.  Renaming
// means the storage behind a parameter can differ from the variable
// named at the call site; these accessors are the Go equivalent of the
// parameter rewriting the SMPSs compiler performs on task bodies.
type Args struct {
	rec    *taskRec
	ctx    *Context
	worker int
	failed error
}

// Len returns the number of bound parameters.
func (a *Args) Len() int { return len(a.rec.args) }

// Fail marks the task as failed with err: the body may finish normally,
// but the runtime records a TaskError wrapping err as the context's
// sticky failure (first failure wins), and under OnFailure: FailPoison
// the task's dependents are skipped as poisoned.  Multiple calls keep
// the first non-nil err; Fail(nil) is a no-op.  A panic in the body
// takes precedence over a recorded Fail.
func (a *Args) Fail(err error) {
	if err != nil && a.failed == nil {
		a.failed = err
	}
}

// Worker returns the identity of the executing thread (0 = main thread,
// 1.. = workers), handy for per-thread scratch storage.
func (a *Args) Worker() int { return a.worker }

// arg returns parameter i, which must be of the given kind.
func (a *Args) arg(i int, kind argKind) *boundArg {
	if i < 0 || i >= len(a.rec.args) {
		panic(fmt.Sprintf("core: %s has no argument %d (it has %d)", a.rec.def.Name, i, len(a.rec.args)))
	}
	b := &a.rec.args[i]
	if b.kind != kind {
		what := [...]string{argData: "a data", argValue: "a value", argOpaque: "an opaque"}[kind]
		panic(fmt.Sprintf("core: argument %d of %s is not %s parameter", i, a.rec.def.Name, what))
	}
	return b
}

// Data returns parameter i's effective storage as declared (a slice or
// pointer).  It panics if parameter i is a Value or Opaque argument.
func (a *Args) Data(i int) any { return a.arg(i, argData).instance }

// F32 returns parameter i as a []float32.
func (a *Args) F32(i int) []float32 { return a.Data(i).([]float32) }

// F64 returns parameter i as a []float64.
func (a *Args) F64(i int) []float64 { return a.Data(i).([]float64) }

// I64 returns parameter i as a []int64.
func (a *Args) I64(i int) []int64 { return a.Data(i).([]int64) }

// I32 returns parameter i as a []int32.
func (a *Args) I32(i int) []int32 { return a.Data(i).([]int32) }

// Ints returns parameter i as a []int.
func (a *Args) Ints(i int) []int { return a.Data(i).([]int) }

// Bytes returns parameter i as a []byte.
func (a *Args) Bytes(i int) []byte { return a.Data(i).([]byte) }

// Opaque returns parameter i's opaque payload, passed through the runtime
// unaltered like the paper's void* parameters.
func (a *Args) Opaque(i int) any { return a.arg(i, argOpaque).instance }

// Value returns parameter i's by-value payload, with the type it was
// passed as.  Int, Int64 and Float read it without boxing it.
func (a *Args) Value(i int) any {
	b := a.arg(i, argValue)
	// instance is a nil pointer to the type the value was passed as.
	v := reflect.New(reflect.TypeOf(b.instance).Elem()).Elem()
	switch b.vkind {
	case vSigned:
		v.SetInt(int64(b.bits))
	case vUnsigned:
		v.SetUint(b.bits)
	default:
		v.SetFloat(math.Float64frombits(b.bits))
	}
	return v.Interface()
}

// Int returns parameter i's value as an int, accepting any integer type.
func (a *Args) Int(i int) int { return int(a.Int64(i)) }

// Int64 returns parameter i's value as an int64, accepting any integer
// type.  It panics if the value is an unsigned one above MaxInt64.
func (a *Args) Int64(i int) int64 {
	b := a.arg(i, argValue)
	switch {
	case b.vkind == vFloat:
		panic(fmt.Sprintf("core: argument %d of %s is not an integer", i, a.rec.def.Name))
	case b.vkind == vUnsigned && b.bits > math.MaxInt64:
		panic(fmt.Sprintf("core: argument %d of %s overflows an int64", i, a.rec.def.Name))
	}
	return int64(b.bits)
}

// Float returns parameter i's value as a float64, accepting float32 too.
func (a *Args) Float(i int) float64 {
	b := a.arg(i, argValue)
	if b.vkind != vFloat {
		panic(fmt.Sprintf("core: argument %d of %s is not a float", i, a.rec.def.Name))
	}
	return math.Float64frombits(b.bits)
}
