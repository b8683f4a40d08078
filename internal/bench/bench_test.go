package bench

import (
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kernels"
)

// quickCfg is the seconds-scale configuration used to validate every
// experiment runner end to end.
var quickCfg = Config{Quick: true, MaxThreads: 4}

func TestThreadSweep(t *testing.T) {
	got := ThreadSweep(8)
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("ThreadSweep(8) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ThreadSweep(8) = %v, want %v", got, want)
		}
	}
	if got := ThreadSweep(24); got[len(got)-1] != 24 {
		t.Fatalf("sweep must end at max: %v", got)
	}
	if got := ThreadSweep(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ThreadSweep(1) = %v", got)
	}
}

func TestBlockSweep(t *testing.T) {
	got := BlockSweep(256)
	want := []int{32, 64, 128, 256}
	if len(got) != len(want) {
		t.Fatalf("BlockSweep(256) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BlockSweep(256) = %v, want %v", got, want)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := Config{}.Normalize()
	if c.Dim != 2048 || c.Block != 256 || c.QueensN != 13 {
		t.Fatalf("defaults = %+v", c)
	}
	q := Config{Quick: true}.Normalize()
	if q.Dim != 256 || q.Block != 32 || q.QueensN != 9 {
		t.Fatalf("quick defaults = %+v", q)
	}
}

func TestRegistryComplete(t *testing.T) {
	for _, id := range []string{"fig08", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"} {
		if Registry[id] == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(IDs()) != len(Registry) {
		t.Fatalf("IDs() incomplete")
	}
}

// TestAllExperimentsQuick runs every registered experiment at quick
// scale: each must produce non-empty series with positive measurements
// and render without error.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds each")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res := Registry[id](quickCfg)
			if res.ID != id {
				t.Fatalf("result ID = %q, want %q", res.ID, id)
			}
			if len(res.Series) == 0 {
				t.Fatalf("no series produced")
			}
			for _, s := range res.Series {
				if len(s.Points) == 0 {
					t.Fatalf("series %q empty", s.Name)
				}
				for _, p := range s.Points {
					if p.Y <= 0 {
						t.Fatalf("series %q has non-positive measurement at x=%g", s.Name, p.X)
					}
				}
			}
			var tab, csv strings.Builder
			res.Table(&tab)
			res.CSV(&csv)
			if !strings.Contains(tab.String(), res.ID) {
				t.Fatalf("table missing experiment id:\n%s", tab.String())
			}
			if !strings.HasPrefix(csv.String(), "x,") {
				t.Fatalf("csv missing header:\n%s", csv.String())
			}
		})
	}
}

func TestSeriesByNameAndLookup(t *testing.T) {
	r := &Result{Series: []Series{{Name: "a", Points: []Point{{X: 1, Y: 2}}}}}
	if r.SeriesByName("a") == nil || r.SeriesByName("b") != nil {
		t.Fatalf("SeriesByName broken")
	}
	if y, ok := lookup(r.Series[0], 1); !ok || y != 2 {
		t.Fatalf("lookup broken")
	}
	if _, ok := lookup(r.Series[0], 9); ok {
		t.Fatalf("lookup must miss absent x")
	}
}

// TestFig14SpeedupSanity checks the headline shape at quick scale: with
// 4 threads, every task model must beat half of one thread's throughput
// (i.e. parallelism is real, not incidental).
func TestFig14SpeedupSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cfg := quickCfg
	cfg.SortKeys = 1 << 19 // large enough for stable timing
	res := Fig14(cfg)
	for _, s := range res.Series {
		last := s.Points[len(s.Points)-1]
		if last.Y < 0.5 {
			t.Fatalf("series %q speedup at %g threads = %g; parallel run pathologically slow", s.Name, last.X, last.Y)
		}
	}
}

// TestAblationRenameAcceptance pins the rename lifecycle on the Cholesky
// churn workload: the pool must allocate strictly fewer fresh instances
// than it serves renames (recycling replaces allocations), some renames
// must be elided, and after the final barrier no renamed byte may be
// live.
func TestAblationRenameAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick-scale Cholesky churn")
	}
	// Workers: 1 makes the run fully deterministic (no worker goroutines;
	// the main thread executes everything through the throttle window),
	// so the counters are exact, not timing-dependent.  The open-graph
	// limit sits between the per-round reset batch (64 tasks) and the
	// full round (~248 tasks): previous-round resets have drained when
	// the next round's resets are analyzed (dead hazards, elided in
	// place) while the previous round's trailing factor tasks are still
	// pending (live hazards, renamed through the pool).
	const threads, dim, block, rounds = 1, 256, 32, 4
	st := choleskyChurnStats(threads, dim, block, rounds, core.Config{GraphLimit: 128}, kernels.Tuned).st

	if st.PoolMisses == 0 {
		t.Fatalf("run produced no fresh renames; churn workload broken: %+v", st)
	}
	if st.PoolMisses >= st.Renames {
		t.Fatalf("pool must allocate strictly fewer fresh instances than renames: misses %d vs renames %d",
			st.PoolMisses, st.Renames)
	}
	if st.RenamesElided == 0 {
		t.Fatalf("run never elided a rename: %+v", st)
	}
	if st.LiveRenamedBytes != 0 {
		t.Fatalf("live renamed bytes after barrier = %d, want 0", st.LiveRenamedBytes)
	}
}

// TestAblationFaultsAcceptance pins the fault-harness criterion: the
// zero-failure fast path must be within noise of a run with the chaos
// harness absent.  Timing bounds on shared machines need slack, so the
// pin is a generous 2× on the compute-bound Cholesky churn — the real
// claim (one atomic pointer load per hook) would show up as orders of
// magnitude, not fractions.  The run must also leave no injector
// installed behind it.
func TestAblationFaultsAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	res := AblationFaults(quickCfg)
	if chaos.Active() != nil {
		t.Fatal("AblationFaults left an injector installed")
	}
	for _, wl := range []string{"cholesky", "churn"} {
		disabled := res.SeriesByName(wl + " disabled")
		armed := res.SeriesByName(wl + " armed-zero")
		if disabled == nil || armed == nil {
			t.Fatalf("%s: missing series in %v", wl, res.Series)
		}
	}
	disabled := res.SeriesByName("cholesky disabled").Points[0].Y
	armed := res.SeriesByName("cholesky armed-zero").Points[0].Y
	if armed > 2*disabled {
		t.Fatalf("armed-zero Cholesky churn %.4fs vs disabled %.4fs: fast path is not within noise", armed, disabled)
	}
}

// TestAblationLocalityAcceptance pins the locality-layer criteria on
// the quick-scale pipelined Cholesky: the chaining configuration must
// actually chain (nonzero ChainHits), the baseline must not touch the
// locality machinery at all, and both must execute the same task count
// (chaining reorders nothing, it only relocates execution).
func TestAblationLocalityAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick-scale Cholesky churns")
	}
	const threads, dim, block, rounds = 2, 256, 32, 3
	base := choleskyChurnStats(threads, dim, block, rounds,
		core.Config{}, kernels.Tuned)
	chain := choleskyChurnStats(threads, dim, block, rounds,
		core.Config{Locality: core.LocalityConfig{Affinity: true, ChainDepth: 4}}, kernels.Tuned)

	if base.st.Sched.ChainHits != 0 || base.st.Sched.AffinityPushes != 0 {
		t.Fatalf("baseline exercised the locality layer: %+v", base.st.Sched)
	}
	if chain.st.Sched.ChainHits == 0 {
		t.Fatalf("pipelined Cholesky never chained a successor: %+v", chain.st.Sched)
	}
	if chain.st.TasksExecuted != base.st.TasksExecuted {
		t.Fatalf("locality layer changed the task count: %d vs %d",
			chain.st.TasksExecuted, base.st.TasksExecuted)
	}
}
