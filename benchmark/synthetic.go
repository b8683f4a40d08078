package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// The three workloads below own their submission loops and task bodies,
// so the traced pass can put a span around every Context.Submit and
// every body.

// nullTasks is the task count of the two empty-body workloads.
const nullTasks = 250_000

// submit is one timed Context.Submit; a refusal is counted, not fatal,
// so the failure accounting sees every refused op.
func submit(tr *tracer, ctx *core.Context, refused *int64, def *core.TaskDef, args ...core.Arg) {
	s := tr.begin()
	err := ctx.Submit(def, args...)
	tr.end(spanSubmit, s)
	if err != nil {
		*refused++
	}
}

// ---------------------------------------------------------------------
// 4. chain_null

type chain struct {
	host
	x     []int64
	start int64
	def   *core.TaskDef
	tr    *tracer
}

func newChain(seed int64, procs int) workload {
	w := &chain{host: newHost(procs), x: make([]int64, 1)}
	w.start = rand.New(rand.NewSource(seed)).Int63n(1 << 40)
	w.def = core.NewTaskDef("chain_t", func(a *core.Args) {
		s := w.tr.begin()
		a.I64(0)[0]++
		w.tr.end(spanBody, s)
	})
	return w
}

func (w *chain) prepare() { w.x[0] = w.start }

func (w *chain) run(tr *tracer) (refused int64, err error) {
	w.tr = tr
	ctx := w.rt.Context()
	loop := tr.begin()
	for i := 0; i < nullTasks; i++ {
		submit(tr, ctx, &refused, w.def, core.InOut(w.x))
	}
	tr.end(spanSubmitLoop, loop)
	return refused, w.drain(tr)
}

func (w *chain) check(core.Stats) error {
	if want := w.start + nullTasks; w.x[0] != want {
		return fmt.Errorf("chain counter = %d, want %d", w.x[0], want)
	}
	return nil
}

func (w *chain) sequential() time.Duration {
	w.prepare()
	start := time.Now()
	for i := 0; i < nullTasks; i++ {
		w.x[0]++
	}
	return time.Since(start)
}

// ---------------------------------------------------------------------
// 5. fanout_null

const (
	fanShared = 8
	fanCells  = 1024
)

type fanout struct {
	host
	shared [fanShared][]int64
	cells  [fanCells][]int64
	init   [fanCells]int64
	def    *core.TaskDef
	tr     *tracer
}

func newFanout(seed int64, procs int) workload {
	w := &fanout{host: newHost(procs)}
	rng := rand.New(rand.NewSource(seed))
	// One cache line per object, so neighbouring cells never share one.
	for i := range w.shared {
		w.shared[i] = make([]int64, 8)
		w.shared[i][0] = 1 + rng.Int63n(1<<20)
	}
	for i := range w.cells {
		w.cells[i] = make([]int64, 8)
		w.init[i] = rng.Int63n(1 << 40)
	}
	w.def = core.NewTaskDef("fanout_t", func(a *core.Args) {
		s := w.tr.begin()
		a.I64(1)[0] += a.I64(0)[0]
		w.tr.end(spanBody, s)
	})
	return w
}

func (w *fanout) prepare() {
	for i := range w.cells {
		w.cells[i][0] = w.init[i]
	}
}

func (w *fanout) run(tr *tracer) (refused int64, err error) {
	w.tr = tr
	ctx := w.rt.Context()
	loop := tr.begin()
	for i := 0; i < nullTasks; i++ {
		submit(tr, ctx, &refused, w.def, core.In(w.shared[i%fanShared]), core.InOut(w.cells[i%fanCells]))
	}
	tr.end(spanSubmitLoop, loop)
	return refused, w.drain(tr)
}

// check recounts every cell: cell c is touched by the tasks i ≡ c (mod
// fanCells), each adding shared[i mod fanShared].
func (w *fanout) check(core.Stats) error {
	var want [fanCells]int64
	copy(want[:], w.init[:])
	for i := 0; i < nullTasks; i++ {
		want[i%fanCells] += w.shared[i%fanShared][0]
	}
	for c := range want {
		if w.cells[c][0] != want[c] {
			return fmt.Errorf("fanout cell %d = %d, want %d", c, w.cells[c][0], want[c])
		}
	}
	return nil
}

func (w *fanout) sequential() time.Duration {
	w.prepare()
	start := time.Now()
	for i := 0; i < nullTasks; i++ {
		w.cells[i%fanCells][0] += w.shared[i%fanShared][0]
	}
	return time.Since(start)
}

// ---------------------------------------------------------------------
// 6. rename_churn

const (
	churnRounds    = 600
	churnBufs      = 64
	churnWords     = 2048 // 16 KiB per buffer
	churnConsumers = 3
	// churnWindow bounds the rounds in flight (about 2 k tasks), far
	// below the graph limit, so the submitter never turns worker while
	// a gate is closed.
	churnWindow = 8
	// Every producer from round 1 on overwrites a buffer whose readers
	// are still held back by their round's gate, so it must rename;
	// odd rounds are inout and also copy.
	churnRenames = churnBufs * (churnRounds - 1)
	churnCopies  = churnBufs * (churnRounds / 2)
)

// gate holds back one round's consumers: its task blocks on open, which
// the submitter closes once the next round's producers are submitted.
type gate struct {
	val          []int64 // the object the consumers read
	open, passed chan struct{}
}

type churn struct {
	host
	procs                              int
	bufs                               [churnBufs][]int64
	sinks                              [churnBufs][churnConsumers][]int64
	gates                              []gate
	seeds                              [churnRounds][churnBufs]int64 // what even rounds write
	init                               [churnBufs][churnConsumers]int64
	want                               [churnBufs][churnConsumers]int64
	gateDef, outDef, inoutDef, readDef *core.TaskDef
	tr                                 *tracer
}

func churnFill(buf []int64, v int64) {
	for i := range buf {
		buf[i] = v + int64(i)
	}
}

func churnBump(buf []int64, r int64) {
	for i := range buf {
		buf[i] += r
	}
}

func churnRead(buf, gateVal, sink []int64, j int64) {
	var s int64
	for _, v := range buf {
		s += v
	}
	sink[0] += (s + gateVal[0]) * (j + 1)
}

func newChurn(seed int64, procs int) workload {
	w := &churn{host: newHost(procs), procs: procs, gates: make([]gate, churnRounds)}
	rng := rand.New(rand.NewSource(seed))
	for k := range w.bufs {
		w.bufs[k] = make([]int64, churnWords)
		for j := range w.sinks[k] {
			w.sinks[k][j] = make([]int64, 8)
			w.init[k][j] = rng.Int63n(1 << 30)
		}
	}
	for r := range w.seeds {
		w.gates[r].val = make([]int64, 8)
		for k := range w.seeds[r] {
			w.seeds[r][k] = rng.Int63n(1 << 30)
		}
	}
	body := func(f func(a *core.Args)) func(a *core.Args) {
		return func(a *core.Args) {
			s := w.tr.begin()
			f(a)
			w.tr.end(spanBody, s)
		}
	}
	// The gate's wait is not body work, so it stays outside the span.
	w.gateDef = core.NewTaskDef("churn_gate_t", func(a *core.Args) {
		g := &w.gates[a.Int(1)]
		<-g.open
		s := w.tr.begin()
		a.I64(0)[0] = int64(a.Int(1))
		w.tr.end(spanBody, s)
		close(g.passed)
	})
	w.outDef = core.NewTaskDef("churn_out_t", body(func(a *core.Args) {
		churnFill(a.I64(0), a.Int64(1))
	}))
	w.inoutDef = core.NewTaskDef("churn_inout_t", body(func(a *core.Args) {
		churnBump(a.I64(0), a.Int64(1))
	}))
	w.readDef = core.NewTaskDef("churn_read_t", body(func(a *core.Args) {
		churnRead(a.I64(0), a.I64(1), a.I64(2), a.Int64(3))
	}))
	// The oracle is the same program run in order on one buffer per k.
	w.sequential()
	for k := range w.sinks {
		for j := range w.sinks[k] {
			w.want[k][j] = w.sinks[k][j][0]
		}
	}
	return w
}

func (w *churn) prepare() {
	for k := range w.sinks {
		for j := range w.sinks[k] {
			w.sinks[k][j][0] = w.init[k][j]
		}
	}
	for r := range w.gates {
		w.gates[r].open, w.gates[r].passed = make(chan struct{}), make(chan struct{})
	}
}

func (w *churn) run(tr *tracer) (refused int64, err error) {
	w.tr = tr
	ctx := w.rt.Context()
	loop := tr.begin()
	for r := 0; r < churnRounds; r++ {
		if r >= churnWindow && w.procs > 1 {
			// Back-pressure without helping: with one thread nothing runs
			// before the Barrier, and the oldest gates are open by then.
			<-w.gates[r-churnWindow].passed
		}
		g := &w.gates[r]
		submit(tr, ctx, &refused, w.gateDef, core.Out(g.val), core.Value(r))
		for k := range w.bufs {
			if r%2 == 0 {
				submit(tr, ctx, &refused, w.outDef, core.Out(w.bufs[k]), core.Value(w.seeds[r][k]))
			} else {
				submit(tr, ctx, &refused, w.inoutDef, core.InOut(w.bufs[k]), core.Value(int64(r)))
			}
		}
		if r > 0 {
			close(w.gates[r-1].open)
		}
		for k := range w.bufs {
			for j := range w.sinks[k] {
				submit(tr, ctx, &refused, w.readDef,
					core.In(w.bufs[k]), core.In(g.val), core.InOut(w.sinks[k][j]), core.Value(int64(j)))
			}
		}
	}
	close(w.gates[churnRounds-1].open)
	tr.end(spanSubmitLoop, loop)
	return refused, w.drain(tr)
}

func (w *churn) check(d core.Stats) error {
	for k := range w.sinks {
		for j := range w.sinks[k] {
			if got := w.sinks[k][j][0]; got != w.want[k][j] {
				return fmt.Errorf("churn sink[%d][%d] = %d, want %d", k, j, got, w.want[k][j])
			}
		}
	}
	if d.Deps.Renames != churnRenames || d.Deps.RenameCopies != churnCopies {
		return fmt.Errorf("churn renames = %d (copies %d), want exactly %d (%d)",
			d.Deps.Renames, d.Deps.RenameCopies, churnRenames, churnCopies)
	}
	return nil
}

func (w *churn) sequential() time.Duration {
	w.prepare()
	start := time.Now()
	for r := 0; r < churnRounds; r++ {
		w.gates[r].val[0] = int64(r)
		for k := range w.bufs {
			if r%2 == 0 {
				churnFill(w.bufs[k], w.seeds[r][k])
			} else {
				churnBump(w.bufs[k], int64(r))
			}
			for j := range w.sinks[k] {
				churnRead(w.bufs[k], w.gates[r].val, w.sinks[k][j], int64(j))
			}
		}
	}
	return time.Since(start)
}
