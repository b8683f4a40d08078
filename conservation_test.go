package repro_test

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
)

// The open-task count is derived (submitted - completed) and Stats reads
// every counter while its writers keep counting.  Two properties must
// hold, and the chaos and multi-tenant suites check them on every
// tenant: after a Barrier the books balance exactly, and a snapshot
// taken from another goroutine in the middle of a run never shows a
// counter going backwards.

// statsConserved checks a context's books after a Barrier.  Every
// submitted task was run or skipped-and-counted; every task entered the
// scheduler through exactly one push or was chained past it; and every
// pushed task left through exactly one pop or as the task a steal hands
// its thief (the rest of a stolen batch lands on the thief's deque and
// is popped from there, so batches are what balances, not Steals).
func statsConserved(st core.Stats) error {
	if got := st.TasksExecuted + st.Poisoned + st.Canceled; got != st.TasksSubmitted {
		return fmt.Errorf("executed %d + poisoned %d + canceled %d != submitted %d",
			st.TasksExecuted, st.Poisoned, st.Canceled, st.TasksSubmitted)
	}
	sc := st.Sched
	pushes := sc.PushOwn + sc.PushMain + sc.PushHigh + sc.AffinityPushes
	if pushes+sc.ChainHits != st.TasksSubmitted {
		return fmt.Errorf("pushes %d + chained %d != submitted %d (%+v)", pushes, sc.ChainHits, st.TasksSubmitted, sc)
	}
	if pops := sc.PopOwn + sc.PopMain + sc.PopHigh + sc.StealBatches; pops != pushes {
		return fmt.Errorf("pops and steals %d != pushes %d (%+v)", pops, pushes, sc)
	}
	return nil
}

// watchStats snapshots ctx.Stats() in a loop on a goroutine that is not
// the submitter, until stop is called; stop returns an error naming the
// first counter seen to decrease.  Under -race the loop is also what
// shows a snapshot to be race-clean.
func watchStats(ctx *core.Context) (stop func() error) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last core.Stats
		for {
			select {
			case <-done:
				return
			default:
			}
			st := ctx.Stats()
			for _, c := range []struct {
				name     string
				was, now int64
			}{
				{"TasksSubmitted", last.TasksSubmitted, st.TasksSubmitted},
				{"TasksExecuted", last.TasksExecuted, st.TasksExecuted},
				{"Poisoned", last.Poisoned, st.Poisoned},
				{"Canceled", last.Canceled, st.Canceled},
				{"Failures", last.Failures, st.Failures},
				{"MainHelped", last.MainHelped, st.MainHelped},
				{"Sched.PushMain", last.Sched.PushMain, st.Sched.PushMain},
				{"Sched.PushOwn", last.Sched.PushOwn, st.Sched.PushOwn},
				{"Sched.PopMain", last.Sched.PopMain, st.Sched.PopMain},
				{"Sched.PopOwn", last.Sched.PopOwn, st.Sched.PopOwn},
				{"Sched.Steals", last.Sched.Steals, st.Sched.Steals},
				{"Deps.TrueEdges", last.Deps.TrueEdges, st.Deps.TrueEdges},
			} {
				if c.now < c.was && err == nil {
					err = fmt.Errorf("Stats().%s went from %d to %d", c.name, c.was, c.now)
				}
			}
			last = st
			runtime.Gosched()
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		return err
	}
}
