package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/deps"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// This file measures each runtime layer alone, behind its public API,
// with no workers: the per-task cost a layer adds when nothing else is
// in the way.  Every figure is the median of layerRounds rounds.

const (
	layerRounds = 5
	layerOps    = 1 << 15 // operations per round
	// replayWindow is how many tasks a deps replay analyses before it
	// completes them: the submitter running that far ahead of the
	// workers.  Completing prunes reader lists and region history as a
	// running system does; without it the replay would measure an ever
	// longer history instead of the analysis.
	replayWindow = 64
)

// medianOf runs f layerRounds times and returns the median result.
func medianOf(f func() float64) float64 {
	var samples []float64
	for i := 0; i < layerRounds; i++ {
		samples = append(samples, f())
	}
	return median(samples)
}

// analysisStreams are the access streams replayed into a stand-alone
// tracker, each named after the deps path it takes and fed the way the
// workload in its comment submits.
var analysisStreams = []struct {
	name string
	feed func(*replay)
}{
	{"inout", streamInOut},   // chain_null
	{"multi", streamMulti},   // fanout_null
	{"region", streamRegion}, // multisort_regions
	{"rename", streamRename}, // rename_churn
}

// measureLayers returns the isolated per-layer metrics by name: ns,
// allocations or Gflop/s per operation.
func measureLayers(seed int64, p kernels.Provider) map[string]float64 {
	m := map[string]float64{}
	for _, s := range analysisStreams {
		var allocs []float64
		m["deps.analyze_"+s.name+"_ns"] = medianOf(func() float64 {
			r := newReplay()
			s.feed(r)
			allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
			return float64(r.ns) / float64(r.ops)
		})
		m["deps.analyze_"+s.name+"_allocs"] = median(allocs)
	}
	m["graph.insert_ns"] = medianOf(graphInsert)
	m["graph.complete1_ns"] = medianOf(func() float64 { return graphComplete(1) })
	m["graph.complete8_ns"] = medianOf(func() float64 { return graphComplete(8) })
	clock := medianOf(clockCost)
	m["sched.pushpop_ns"] = medianOf(schedPushPop)
	m["sched.steal_ns"] = medianOf(func() float64 { return schedSteal(clock) })
	m["sched.wake_ns"] = medianOf(schedWake)
	kernelRates(seed, p, m)
	return m
}

// ---------------------------------------------------------------------
// deps: replay a workload's access stream into a stand-alone tracker.

// replay feeds accesses to a tracker over a graph nobody executes.  Only
// the AnalyzeBatch calls are timed; node creation, sealing and the
// completions that retire a window are not.
type replay struct {
	g       *graph.Graph
	tr      *deps.Tracker
	out     []deps.Resolution
	window  []*graph.Node   // analysed and still open, oldest first
	tasks   [][]deps.Access // queued for the next analysis, one entry per task
	ns      int64
	ops     int64
	mallocs uint64
}

func newReplay() *replay {
	r := &replay{}
	r.g = graph.New(func(*graph.Node, int) {})
	r.tr = deps.NewTracker(r.g)
	return r
}

// object builds the Access fields every mode of an []int64 object needs.
func object(data []int64) deps.Access {
	n := len(data)
	return deps.Access{
		Key:   uintptr(unsafe.Pointer(unsafe.SliceData(data))),
		Data:  data,
		Alloc: func() any { return make([]int64, n) },
		Copy:  func(dst, src any) { copy(dst.([]int64), src.([]int64)) },
	}
}

func access(obj deps.Access, mode deps.Mode, region deps.Region) deps.Access {
	obj.Mode, obj.Region = mode, region
	return obj
}

// queue adds one task's accesses to the tasks analysed next.
func (r *replay) queue(accs ...deps.Access) { r.tasks = append(r.tasks, accs) }

// add queues one task; a full window is analysed and retired.
func (r *replay) add(accs ...deps.Access) {
	r.queue(accs...)
	if len(r.tasks) == replayWindow {
		r.analyze()
		r.retire(len(r.window))
	}
}

// analyze runs the timed analysis of the queued tasks, leaving their
// nodes open.
func (r *replay) analyze() {
	nodes := make([]*graph.Node, len(r.tasks))
	for i := range nodes {
		nodes[i] = r.g.AddNode(0, "replay", false, nil)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, accs := range r.tasks {
		r.out = r.tr.AnalyzeBatch(nodes[i], accs, r.out[:0])
	}
	r.ns += int64(time.Since(start))
	runtime.ReadMemStats(&m1)
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.ops += int64(len(r.tasks))
	for _, n := range nodes {
		r.g.Seal(n)
	}
	r.window = append(r.window, nodes...)
	r.tasks = r.tasks[:0]
}

// retire completes the n oldest open nodes in submission order, which is
// a valid execution order.
func (r *replay) retire(n int) {
	for _, node := range r.window[:n] {
		r.g.MarkRunning(node)
		r.g.Complete(node, 0)
	}
	r.window = r.window[n:]
}

// streamInOut is chain_null's stream: every task inout on one object.
func streamInOut(r *replay) {
	x := object(make([]int64, 1))
	for i := 0; i < layerOps; i++ {
		r.add(access(x, deps.ModeInOut, deps.Full))
	}
}

// streamMulti is fanout_null's stream: a shared input and a cell inout.
func streamMulti(r *replay) {
	var shared [fanShared]deps.Access
	var cells [fanCells]deps.Access
	for i := range shared {
		shared[i] = object(make([]int64, 8))
	}
	for i := range cells {
		cells[i] = object(make([]int64, 8))
	}
	for i := 0; i < layerOps; i++ {
		r.add(access(shared[i%fanShared], deps.ModeIn, deps.Full),
			access(cells[i%fanCells], deps.ModeInOut, deps.Full))
	}
}

// streamRegion follows multisort's recursion on interval regions: leaf
// sorts inout on disjoint chunks, then merge levels that read two runs
// of one buffer and write the matching interval of the other.  Split
// points are taken proportional, as they are on uniform keys.
func streamRegion(r *replay) {
	const chunk, leaf = 16 << 10, 16 << 10
	const keys = 64 * chunk
	bufs := [2]deps.Access{object(make([]int64, keys)), object(make([]int64, keys))}
	for done := 0; done < layerOps; {
		for lo := int64(0); lo < keys; lo += chunk {
			r.add(access(bufs[0], deps.ModeInOut, deps.Interval(lo, lo+chunk-1)))
			done++
		}
		src, dst := 0, 1
		for run := int64(chunk); run < keys; run *= 2 {
			for lo := int64(0); lo < keys; lo += 2 * run {
				// A pair of runs merges through 2·run/leaf leaf tasks,
				// each reading half a leaf from either run.
				for off := int64(0); off < 2*run; off += leaf {
					a, b := lo+off/2, lo+run+off/2
					r.add(access(bufs[src], deps.ModeIn, deps.Interval(a, a+leaf/2-1)),
						access(bufs[src], deps.ModeIn, deps.Interval(b, b+leaf/2-1)),
						access(bufs[dst], deps.ModeOut, deps.Interval(lo+off, lo+off+leaf-1)))
					done++
				}
			}
			src, dst = dst, src
		}
	}
}

// streamRename is rename_churn's stream: each round's writers find the
// previous round's readers still open, so every write after round 0
// acquires renamed storage and every retire returns some to the pool.
func streamRename(r *replay) {
	var bufs [churnBufs]deps.Access
	var sinks [churnBufs][churnConsumers]deps.Access
	for k := range bufs {
		bufs[k] = object(make([]int64, churnWords))
		for j := range sinks[k] {
			sinks[k][j] = object(make([]int64, 8))
		}
	}
	const perRound = 1 + churnBufs*(1+churnConsumers)
	for round := 0; round*perRound < layerOps; round++ {
		mode := deps.ModeOut
		if round%2 == 1 {
			mode = deps.ModeInOut
		}
		gate := object(make([]int64, 8))
		r.queue(access(gate, deps.ModeOut, deps.Full))
		for k := range bufs {
			r.queue(access(bufs[k], mode, deps.Full))
		}
		for k := range bufs {
			for j := range sinks[k] {
				r.queue(access(bufs[k], deps.ModeIn, deps.Full),
					access(gate, deps.ModeIn, deps.Full),
					access(sinks[k][j], deps.ModeInOut, deps.Full))
			}
		}
		// The previous round retires only after this one was analysed
		// against it.
		previous := len(r.window)
		r.analyze()
		r.retire(previous)
	}
}

// ---------------------------------------------------------------------
// graph

// graphInsert times AddNode + AddEdge + Seal on a chain nobody executes.
func graphInsert() float64 {
	g := graph.New(func(*graph.Node, int) {})
	prev := g.AddNode(0, "n", false, nil)
	g.Seal(prev)
	start := time.Now()
	for i := 0; i < layerOps; i++ {
		n := g.AddNode(0, "n", false, nil)
		g.AddEdge(prev, n)
		g.Seal(n)
		prev = n
	}
	return float64(time.Since(start)) / layerOps
}

// graphComplete times MarkRunning + Complete of nodes that each release
// fan successors.
func graphComplete(fan int) float64 {
	g := graph.New(func(*graph.Node, int) {})
	parents := make([]*graph.Node, layerOps)
	for i := range parents {
		parents[i] = g.AddNode(0, "p", false, nil)
		g.Seal(parents[i])
		for j := 0; j < fan; j++ {
			c := g.AddNode(0, "c", false, nil)
			g.AddEdge(parents[i], c)
			g.Seal(c)
		}
	}
	start := time.Now()
	for _, n := range parents {
		g.MarkRunning(n)
		g.Complete(n, 0)
	}
	return float64(time.Since(start)) / layerOps
}

// ---------------------------------------------------------------------
// sched

// clockCost is the cost of one time.Now/time.Since pair, subtracted
// where a single short call has to be timed on its own.
func clockCost() float64 {
	var sink time.Duration
	start := time.Now()
	for i := 0; i < layerOps; i++ {
		sink += time.Since(time.Now())
	}
	total := time.Since(start)
	runtime.KeepAlive(sink)
	return float64(total) / layerOps
}

// schedPushPop times a worker pushing a released task on its own deque
// and popping it back.
func schedPushPop() float64 {
	loc := sched.NewLocality(2)
	n := &graph.Node{}
	start := time.Now()
	for i := 0; i < layerOps; i++ {
		loc.Push(n, 1)
		loc.TryNext(1)
	}
	return float64(time.Since(start)) / layerOps
}

// schedSteal times the TryNext in which worker 2, with nothing of its
// own, takes half of worker 1's eight queued tasks.
func schedSteal(clock float64) float64 {
	const queued = 8
	loc := sched.NewLocality(3)
	n := &graph.Node{}
	rounds := layerOps / queued
	var total time.Duration
	for i := 0; i < rounds; i++ {
		for j := 0; j < queued; j++ {
			loc.Push(n, 1)
		}
		start := time.Now()
		loc.TryNext(2)
		total += time.Since(start)
		for loc.TryNext(2) != nil {
		}
		for loc.TryNext(1) != nil {
		}
	}
	return float64(total)/float64(rounds) - clock
}

// schedWake times TokenMux.Push to a parked worker's Get returning the
// task.  With one processor the two goroutines alternate by yielding.
func schedWake() float64 {
	const rounds = 1024
	mux := sched.NewTokenMux(2)
	client := mux.Attach(sched.NewLocality(2), 0)
	var got atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for mux.Get(1, nil, nil) != nil {
			got.Add(1)
		}
	}()
	n := &graph.Node{}
	var total time.Duration
	for i := int64(0); i < rounds; i++ {
		for mux.Stats().Parks <= i {
			runtime.Gosched()
		}
		start := time.Now()
		mux.Push(client, n, graph.MainThread)
		for got.Load() <= i {
			runtime.Gosched()
		}
		total += time.Since(start)
	}
	mux.Close()
	wg.Wait()
	return float64(total) / rounds
}

// ---------------------------------------------------------------------
// kernels

// kernelRates times single-thread calls of the four Cholesky kernels at
// the benchmark's tile size and stores Gflop/s for each in out.
func kernelRates(seed int64, p kernels.Provider, out map[string]float64) {
	const m, calls = cholTile, 8
	rng := rand.New(rand.NewSource(seed))
	tile := func() []float32 {
		t := make([]float32, m*m)
		for i := range t {
			t[i] = rng.Float32()*2 - 1
		}
		return t
	}
	a, b, c := tile(), tile(), tile()
	spd := tile()
	for i := 0; i < m; i++ {
		for j := 0; j < i; j++ {
			spd[j*m+i] = spd[i*m+j]
		}
		spd[i*m+i] = m + 1
	}
	l, work := make([]float32, m*m), make([]float32, m*m)
	// Each call is timed alone on freshly reset operands: Trsm and Potrf
	// overwrite theirs, and repeating them would drift into denormals.
	rate := func(flops float64, reset, call func()) float64 {
		return medianOf(func() float64 {
			var total time.Duration
			for i := 0; i < calls; i++ {
				reset()
				start := time.Now()
				call()
				total += time.Since(start)
			}
			return flops * calls / float64(total)
		})
	}
	const m3 = float64(m) * m * m
	out["kernels.gemm_gflops"] = rate(2*m3, func() { copy(work, c) }, func() { p.GemmNT(a, b, work, m) })
	out["kernels.syrk_gflops"] = rate(m3, func() { copy(work, c) }, func() { p.Syrk(a, work, m) })
	copy(l, spd)
	if !p.Potrf(l, m) {
		panic("benchmark: diagonally dominant tile is not positive definite")
	}
	out["kernels.trsm_gflops"] = rate(m3, func() { copy(work, b) }, func() { p.Trsm(l, work, m) })
	out["kernels.potrf_gflops"] = rate(m3/3, func() { copy(work, spd) }, func() { p.Potrf(work, m) })
}
