package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// Tests of the completion wake rule.  A completing worker bumps
// Context.completed and then looks at Context.waiters; the submitter
// bumps waiters and then compares completed with submitted before it
// parks.  Nothing else wakes a
// parked submitter — a completion that drains the context with nobody
// waiting sends no token — so if the two sides ever missed each other the
// submitter would sleep forever.  Each test is many short rounds in which
// the submitter blocks right behind a single task, at one, two and four
// processors; a lost wake shows as a round that never ends.

// wakeRounds runs round(i) for up to 200 000 rounds (a tenth with
// -short), or as many as fit in a second — the subset a -race run gets
// through — and returns how many it ran.  A lost wake cannot fail an
// assertion, it can only hang, so a watchdog panics — naming the round,
// with every goroutine's stack — when a minute passes without progress.
func wakeRounds(round func(i int)) int {
	rounds := 200_000
	if testing.Short() {
		rounds /= 10
	}
	var at atomic.Int64
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for last := int64(-1); ; {
			select {
			case <-stop:
				return
			case <-time.After(time.Minute):
				now := at.Load()
				if now == last {
					panic(fmt.Sprintf("round %d never finished: the submitter's wake was lost", now))
				}
				last = now
			}
		}
	}()
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if i%1024 == 0 && time.Since(start) > time.Second {
			return i
		}
		at.Store(int64(i))
		round(i)
	}
	return rounds
}

// handOff waits, in three rounds of four, until a worker has taken the
// task just submitted: the submitter then blocks on a completion that is
// in flight on another thread, which is the window the protocol has to
// close, instead of finding the task queued and running it itself.
func handOff(c *Context, i int) {
	for i%4 != 0 && c.q.Queued() > 0 {
		runtime.Gosched()
	}
}

// forProcs runs f as a subtest at GOMAXPROCS 1, 2 and 4.
func forProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

func TestBarrierNoLostWake(t *testing.T) {
	forProcs(t, func(t *testing.T) {
		rt := New(Config{Workers: 2})
		defer rt.Close()
		x := make([]float32, 1)
		inc := NewTaskDef("inc", func(a *Args) { a.F32(0)[0]++ })
		arg := InOut(x)
		rounds := wakeRounds(func(i int) {
			rt.Submit(inc, arg)
			handOff(rt.ctx, i)
			if err := rt.Barrier(); err != nil {
				t.Error(err)
			}
		})
		if st := rt.Stats(); st.TasksExecuted != int64(rounds) || !rt.ctx.drained() {
			t.Fatalf("executed %d of %d, %d open", st.TasksExecuted, rounds, rt.ctx.open())
		}
	})
}

func TestWaitOnNoLostWake(t *testing.T) {
	forProcs(t, func(t *testing.T) {
		rt := New(Config{Workers: 2})
		defer rt.Close()
		x := make([]float32, 1)
		inc := NewTaskDef("inc", func(a *Args) { a.F32(0)[0]++ })
		arg := InOut(x)
		wakeRounds(func(i int) {
			rt.Submit(inc, arg)
			handOff(rt.ctx, i)
			if err := rt.WaitOn(x); err != nil {
				t.Error(err)
			}
			if x[0] != float32(i%1024+1) {
				t.Errorf("round %d: WaitOn returned with x = %v", i, x[0])
			}
			if i%1024 == 1023 {
				x[0] = 0 // stay where float32 counts exactly
			}
		})
	})
}

// TestGraphLimitNoLostWake: with two tasks allowed open, nearly every
// Submit of a chain finds the limit reached and blocks in throttle on a
// completion, with the stale-bound fast path in front of it.
func TestGraphLimitNoLostWake(t *testing.T) {
	forProcs(t, func(t *testing.T) {
		rt := New(Config{Workers: 2, GraphLimit: 2})
		defer rt.Close()
		x := make([]float32, 1)
		var ran atomic.Int64
		inc := NewTaskDef("inc", func(a *Args) { ran.Add(1) })
		arg := InOut(x)
		rounds := wakeRounds(func(int) {
			rt.Submit(inc, arg)
			if open := rt.ctx.g.Added() - rt.ctx.completedSeen; open > 2 {
				t.Errorf("%d tasks open past a graph limit of 2", open)
			}
		})
		if err := rt.Barrier(); err != nil {
			t.Fatal(err)
		}
		if ran.Load() != int64(rounds) {
			t.Fatalf("ran %d of %d", ran.Load(), rounds)
		}
	})
}

// TestMemoryLimitNoLostWake: every round renames x under a pending
// reader, so the next Submit finds renamed bytes live and blocks until
// the reclaim hook or a completion wakes it.
func TestMemoryLimitNoLostWake(t *testing.T) {
	forProcs(t, func(t *testing.T) {
		rt := New(Config{Workers: 2, MemoryLimit: 1})
		defer rt.Close()
		x := make([]float32, 64)
		sink := make([]float32, 1)
		read := NewTaskDef("read", func(a *Args) { a.F32(1)[0] = a.F32(0)[0] })
		write := NewTaskDef("write", func(a *Args) { a.F32(0)[0] = float32(a.Int(1)) })
		rounds := wakeRounds(func(i int) {
			rt.Submit(write, Out(x), Value(i%1000))
			rt.Submit(read, In(x), InOut(sink))
		})
		if err := rt.Barrier(); err != nil {
			t.Fatal(err)
		}
		if want := float32((rounds - 1) % 1000); x[0] != want || sink[0] != want {
			t.Fatalf("x = %v, sink = %v, want %v", x[0], sink[0], want)
		}
		if st := rt.Stats(); st.Renames == 0 {
			t.Fatalf("no write was renamed: the memory limit never blocked")
		}
	})
}

// TestBarrierNoLostWakeUnderChaos is the Barrier test with the injector
// stretching the windows the protocol has to survive: delayed bodies,
// delayed steals, dropped affinity wakes.
func TestBarrierNoLostWakeUnderChaos(t *testing.T) {
	chaos.Install(chaos.New(chaos.Config{
		Seed:  17,
		Delay: 20 * time.Microsecond,
		Rates: map[chaos.Site]float64{
			chaos.SiteTaskDelay:  0.05,
			chaos.SiteStealDelay: 0.2,
			chaos.SiteWakeDrop:   0.5,
		},
	}))
	defer chaos.Uninstall()
	rt := New(Config{Workers: 3, Locality: LocalityConfig{Affinity: true}})
	defer rt.Close()
	x := make([]float32, 1)
	inc := NewTaskDef("inc", func(a *Args) { a.F32(0)[0]++ })
	rounds := wakeRounds(func(i int) {
		rt.Submit(inc, InOut(x))
		handOff(rt.ctx, i)
		if err := rt.Barrier(); err != nil {
			t.Error(err)
		}
	})
	if st := rt.Stats(); st.TasksExecuted != int64(rounds) {
		t.Fatalf("executed %d of %d", st.TasksExecuted, rounds)
	}
}
