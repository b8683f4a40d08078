package deps

import (
	"slices"
	"sync/atomic"

	"repro/internal/cacheline"
	"repro/internal/dataid"
	"repro/internal/graph"
	"repro/internal/recycle"
)

// Mode is the directionality of a task parameter (paper §II): whether the
// task only reads it, only writes it, or both.
type Mode uint8

// Parameter directionalities.
const (
	// ModeIn marks a parameter that is only read ("input" clause).
	ModeIn Mode = iota
	// ModeOut marks a parameter that is only written ("output" clause).
	// The task must overwrite it completely; the runtime relies on this
	// to rename without copying.
	ModeOut
	// ModeInOut marks a parameter that is read and written ("inout").
	ModeInOut
)

// String returns the paper's clause name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeIn:
		return "input"
	case ModeOut:
		return "output"
	case ModeInOut:
		return "inout"
	}
	return "mode(?)"
}

// Reads reports whether the mode implies reading the previous contents.
func (m Mode) Reads() bool { return m == ModeIn || m == ModeInOut }

// Writes reports whether the mode implies writing.
func (m Mode) Writes() bool { return m == ModeOut || m == ModeInOut }

// Access describes one task parameter presented to the tracker: the
// identity of the data it touches, how it touches it, and — because
// renaming needs to allocate fresh storage of the right shape — callbacks
// to clone that storage.
type Access struct {
	// Key identifies the data object; the runtime uses the base address
	// of the backing array, exactly like the 2008 runtime keys its
	// dependency analysis on parameter memory addresses.
	Key uintptr
	// Mode is the parameter's directionality.
	Mode Mode
	// Region restricts the access to a sub-array (§V.A extension).
	// The zero Region means the whole object.
	Region Region
	// Data is the user-visible storage for the object's initial version.
	// A caller that would have to allocate to build it per access leaves
	// it nil and names the storage by Ref instead.
	Data any
	// Ref names the same storage unboxed and is read only when Data is
	// nil.  The tracker boxes it where it stores an `any`: when it first
	// sees the object, and when a rename finds no recycled instance.
	Ref dataid.Ref
	// Alloc allocates a fresh instance with the same shape as the data,
	// for a renamed write that finds no recycled one.  nil selects the
	// reference's own Alloc, so a caller whose data dataid can shape
	// builds no allocator per access.
	Alloc func() any
	// Copy copies the contents of src into dst.  Required when an inout
	// parameter is renamed; may be nil otherwise.
	Copy func(dst, src any)
}

// Resolution tells the runtime which storage a task must actually operate
// on after renaming, mirroring the pointer rewriting the SMPSs compiler
// performs on task bodies.
type Resolution struct {
	// Instance is the effective storage for the parameter.
	Instance any
	// CopyFrom, when non-nil, is an earlier instance whose contents must
	// be copied into Instance immediately before the task body runs
	// (renamed inout).  The true dependency recorded on the previous
	// producer guarantees CopyFrom is complete by then.
	CopyFrom any
	// Copy is the copier to use for CopyFrom (same as Access.Copy).
	Copy func(dst, src any)
	// Renamed reports whether the tracker allocated fresh storage.
	Renamed bool
}

// version is one single-assignment instance of an object.  Versions form
// a chain: each write (out/inout) opens a new one.
//
// Each version is reference-counted: it holds one reference while it is
// the object's current version, one while its producer is pending, one
// per live reader and one per renamed-inout successor that still has to
// copy from it.  The tasks' references are holds on their graph nodes
// (graph.Holder), counted down the moment each task finishes.  A current
// version holds a reference to itself, so a count that reaches zero
// belongs to a retired (superseded, synced or forgotten) version, which
// dies: pooled storage it owns returns to the tracker's recycling pool
// and the version itself to the tracker's free list.
type version struct {
	// t is the tracker of the version's object, which recycles it.
	t *Tracker
	// producer is the task writing this version, while that task is
	// pending: its completion records executedBy and poisoned below and
	// then clears producer, so the tracker never keeps a pointer to a
	// completed writer (whose storage the runtime recycles).  written
	// tells a version whose producer completed from the initial version
	// (data that existed before any task wrote it).
	producer   atomic.Pointer[graph.Node]
	written    bool
	executedBy int32 // worker that completed the producer, or -1
	poisoned   bool  // the producer completed poisoned: readers run on garbage
	// readers are tasks reading this version.  The list is needed only
	// to materialize WAR edges (DisableRenaming) and to seed a region
	// flip; hazard detection uses the reader count.  It starts in read0
	// and spills into the tracker's store (Tracker.readers).
	readers []graph.Ref
	// instance is the effective storage of this version.
	instance any

	// owned marks instance as pool-managed renamed storage; bytes is
	// its accounted size.  An in-place write transfers ownership to the
	// successor version (they share the instance).
	owned bool
	bytes int64

	// counts holds both counts in one word, so a reader comes and goes in
	// one operation each: the references keeping the instance alive (see
	// above) in the low half, and in the high half the live readers among
	// them — the O(1) hazard probe that replaces the seed's lazy Done()
	// scan over the reader list.
	counts atomic.Int64

	// read0 is the inline room of readers: a version whose list never
	// holds more than four readers never touches the store.
	read0 [4]graph.Ref
}

// What one holder adds to version.counts.
const (
	oneRef    = 1
	oneReader = 1<<32 | oneRef
)

// The holds a task keeps on a version until it completes.  Each kind is
// a view of the version with its own graph.Holder method, so a hold
// costs the task node one interface value and nothing else.
type (
	// sourceHold keeps the instance alive for a renamed inout's seed copy.
	sourceHold version
	// readerHold is a live reader, counted in nreaders too.
	readerHold version
	// producerHold is the pending producer's own reference.
	producerHold version
)

// newVersion returns a version, recycled when the free list has one,
// holding the current-version reference.  With a producer it is that
// task's pending write: the producer holds a second reference.
func (t *Tracker) newVersion(producer *graph.Node, instance any) *version {
	v := t.versions.Get()
	if v == nil {
		v = &version{t: t}
		v.readers = v.read0[:0]
	}
	v.instance = instance
	if producer == nil {
		v.counts.Store(oneRef)
		return v
	}
	v.written = true
	v.producer.Store(producer)
	v.counts.Store(2 * oneRef)
	producer.AddHold((*producerHold)(v))
	return v
}

// pendingProducer returns the task writing the version if it has not
// completed yet, else nil.
func (v *version) pendingProducer() *graph.Node {
	if p := v.producer.Load(); p != nil && !p.Done() {
		return p
	}
	return nil
}

func (v *version) producerPending() bool { return v.pendingProducer() != nil }

// liveReaders reports whether a task reading the version is still open.
func (v *version) liveReaders() bool { return v.counts.Load()>>32 != 0 }

func (v *version) pruneReaders() {
	live := v.readers[:0]
	for _, r := range v.readers {
		if !r.Done() {
			live = append(live, r)
		}
	}
	clear(v.readers[len(live):])
	v.readers = live
}

// The ReleaseHold methods run on the goroutine of the worker completing
// the task that held the reference.

func (h *sourceHold) ReleaseHold(*graph.Node) { (*version)(h).release(oneRef) }

func (h *readerHold) ReleaseHold(*graph.Node) { (*version)(h).release(oneReader) }

// ReleaseHold records what later analyses need of the completed writer
// n, then clears the pointer to it: an analysis that still loads the
// pointer finds n Done and asks n.
func (h *producerHold) ReleaseHold(n *graph.Node) {
	v := (*version)(h)
	v.executedBy = int32(n.ExecutedBy())
	v.poisoned = n.Poisoned()
	v.producer.Store(nil)
	v.release(oneRef)
}

// release drops what one holder added to counts; the last reference
// kills the version.
func (v *version) release(held int64) {
	switch refs := int32(v.counts.Add(-held)); {
	case refs == 0:
		v.die()
	case refs < 0:
		panic("deps: version released more often than held")
	}
}

// die runs exactly once per version, on whichever thread drops its last
// reference — which only a retired version has.  Nothing can reach the
// version any more: owned storage returns to the pool, a spilled reader
// list to the store, and the version, emptied so it pins no data, to the
// free list.
func (v *version) die() {
	t := v.t
	if v.owned {
		t.pool.release(v.instance, v.bytes)
	}
	t.readers.Free(v.readers, nil)
	*v = version{t: t, readers: v.read0[:0]}
	t.versions.Put(v)
}

// object is the tracker's record for one base address.
//
// An object starts in versioned mode, where whole-object accesses build a
// renamed version chain.  The first partial-region access flips it to
// region mode, where an access history is kept and overlapping accesses
// are ordered with real edges (including anti- and output dependencies:
// renaming of partial objects is out of scope, which is exactly why the
// 2008 runtime shipped representants instead).
type object struct {
	key uintptr
	cur *version
	// hist is the access history of an object in region mode, nil in
	// versioned mode.
	hist *regionHistory
	// original is the user-visible storage the object was registered
	// with; renaming may leave the logically-current contents in a
	// different instance, and SyncBack restores them.
	original any
	// copier is the content copier captured from the first access that
	// supplied one.
	copier func(dst, src any)
	// diverged is set when the current version lives in renamed storage
	// rather than in original.
	diverged bool
}

// setCurrent makes nv the object's current version (nil when the object
// is forgotten) and retires the one it replaces: a write superseded it, a
// sync copied it back, or Forget dropped the object.  Retiring drops the
// reference a version holds while current.  This is the only place that
// does, so a version is retired once: a second time would take a
// holder's reference and recycle the instance under a live reader, which
// no count can tell from an ordinary release.
func (obj *object) setCurrent(nv *version) {
	old := obj.cur
	obj.cur = nv
	old.release(oneRef)
}

// Stats aggregates tracker activity for reporting and tests.
type Stats struct {
	// Objects is the number of distinct base addresses ever tracked.
	Objects int64
	// Renames counts instances acquired (pooled or fresh) to break
	// WAW/WAR hazards.
	Renames int64
	// RenamesElided counts writes that found the previous task-written
	// version's hazard dead — producer complete, reader count drained —
	// and proceeded in place, skipping the rename (and, for inout, the
	// seed copy) entirely.
	RenamesElided int64
	// RenameCopies counts renamed inout parameters (each costs one
	// content copy at task start).
	RenameCopies int64
	// PoolHits and PoolMisses count renames served from recycled
	// storage vs. fresh Alloc() calls.  They live in the pool;
	// Tracker.Stats fills them into the snapshot.
	PoolHits, PoolMisses int64
	// TrueEdges counts read-after-write dependencies discovered at
	// analysis time.  For version-tracked objects a dependency whose
	// producer already completed adds no graph edge (it is already
	// satisfied) but still counts, so the counter is a deterministic
	// property of the submission order at any worker count — not of
	// completion timing.  Region-tracked objects keep only live history
	// (completed accesses are pruned), so their share of the counter
	// remains timing-dependent.
	TrueEdges int64
	// FalseEdges counts WAR/WAW edges added; nonzero only for
	// region-tracked objects or when renaming is disabled.
	FalseEdges int64
	// RegionObjects counts objects that flipped into region mode.
	RegionObjects int64
}

// counted lists the counters analysis moves (PoolHits and PoolMisses are
// the pool's), in the order of counters.  It is the one list besides the
// struct: publishing, the snapshot and the tests' monotonicity check loop
// over it, so a new counter cannot be forgotten.
func (s *Stats) counted() [nCounted]*int64 {
	return [...]*int64{&s.Objects, &s.Renames, &s.RenamesElided, &s.RenameCopies,
		&s.TrueEdges, &s.FalseEdges, &s.RegionObjects}
}

const nCounted = 7

// counters is Stats as the analysing thread publishes it: one atomic per
// counter, so that any goroutine may take a snapshot.
type counters [nCounted]atomic.Int64

// add publishes what one AnalyzeBatch call counted in d: a task pays for
// the counters it moved, once each, not for every event.
func (c *counters) add(d *Stats) {
	for i, n := range d.counted() {
		if *n != 0 {
			c[i].Add(*n)
		}
	}
}

// Tracker performs dependency analysis for a single runtime instance.
//
// It has one owner, the thread that submits the instance's tasks
// (core.Context's single-submitter contract): AnalyzeBatch, WriterPending,
// PendingWriters, CurrentInstance, SyncObject, SyncAll and Forget are that
// thread's alone and take no lock.  Other goroutines reach the tracker
// two ways: a completing worker through the versions its task held
// (their counts, the Put sides of the free list and the reader store,
// the pool), and anyone through the snapshot calls Stats, PoolStats and
// LiveRenamedBytes, which read atomics.
type Tracker struct {
	g *graph.Graph //smpss:writer=shared

	// DisableRenaming turns the renaming engine off: hazards become real
	// WAR/WAW edges.  Used by the ablation benchmarks.
	DisableRenaming bool //smpss:writer=shared

	// AffinityHints makes analysis record on each task node the worker
	// that produced the version it accesses, when that producer has
	// already completed: the scheduler's cue for placing a task that is
	// ready at submission on the deque whose owner's cache plausibly
	// still holds its operands (core.Config.Locality).  A still-pending
	// producer needs no hint — its completion routes the successor
	// through the releasing worker.
	AffinityHints bool //smpss:writer=shared

	_ cacheline.Pad

	objects map[uintptr]*object //smpss:writer=submitter
	stats   counters            //smpss:writer=submitter
	// readers is the store reader lists spill into: analyzeIn takes,
	// a version's death gives back.  Each class pads its own sides.
	readers recycle.Spill[graph.Ref]
	// versions recycles dead versions: Get is the owner's, Put comes from
	// whichever thread drops a last reference.  Its Get side closes the
	// owner's group, its Put side opens the workers'.
	versions recycle.FreeList[version]

	pool Pool //smpss:writer=worker

	_ cacheline.Pad
}

// NewTracker creates a tracker that adds edges to g.
func NewTracker(g *graph.Graph) *Tracker {
	return &Tracker{g: g, objects: make(map[uintptr]*object)}
}

// Stats returns a snapshot of the tracker's counters, merged with the
// pool's hit/miss counters.  Any goroutine may call it; each counter is
// monotone from one snapshot to the next.
func (t *Tracker) Stats() Stats {
	s := Stats{PoolHits: t.pool.hits.Load(), PoolMisses: t.pool.misses.Load()}
	for i, n := range s.counted() {
		*n = t.stats[i].Load()
	}
	return s
}

// PoolStats returns a snapshot of the recycling pool's counters.
func (t *Tracker) PoolStats() PoolStats { return t.pool.Stats() }

// ShareStorage points the tracker's rename pool at a shared size-classed
// store, so several trackers — one per context on a shared worker pool —
// recycle renamed instances across tenant boundaries.  Per-tenant
// accounting (hits, misses, live bytes, the reclaim hook) stays with
// this tracker.  Must be called before the first access.
func (t *Tracker) ShareStorage(st *Storage) { t.pool.Share(st) }

// LiveRenamedBytes returns the bytes of renamed storage currently
// acquired and not yet reclaimed — the runtime's memory-limit gauge.
func (t *Tracker) LiveRenamedBytes() int64 { return t.pool.LiveBytes() }

// SetReclaimHook registers f to run whenever renamed storage is
// reclaimed (live bytes decrease).  The runtime points it at the
// memory-limit waiter's wakeup.  Must be called before any access.
func (t *Tracker) SetReclaimHook(f func()) { t.pool.SetReclaimHook(f) }

// lookup returns the record of the object a touches, registering it on
// its first access.
func (t *Tracker) lookup(d *Stats, a *Access) *object {
	obj := t.objects[a.Key]
	if obj == nil {
		data := a.Data
		if data == nil {
			data = a.Ref.Box()
		}
		obj = &object{key: a.Key, cur: t.newVersion(nil, data), original: data}
		t.objects[a.Key] = obj
		d.Objects++
	}
	if obj.copier == nil && a.Copy != nil {
		obj.copier = a.Copy
	}
	return obj
}

// Analyze resolves one parameter access for task node, adding the
// dependency edges it implies.  It must be called after graph.AddNode and
// before graph.Seal for the node.
func (t *Tracker) Analyze(node *graph.Node, a Access) Resolution {
	var out [1]Resolution
	return t.AnalyzeBatch(node, []Access{a}, out[:0])[0]
}

// AnalyzeBatch resolves every access of one task in submission order.
// Results are appended to out and returned; callers reuse out across
// batches to avoid per-task allocation.  The version references the task
// acquires become holds on node, which cannot complete before the Seal
// the caller issues afterwards.  What the accesses count is gathered in
// a local Stats and published once at the end.
func (t *Tracker) AnalyzeBatch(node *graph.Node, accs []Access, out []Resolution) []Resolution {
	var d Stats
	for i := range accs {
		out = append(out, t.analyze(&d, node, &accs[i]))
	}
	t.stats.add(&d)
	return out
}

// analyze dispatches one access.
func (t *Tracker) analyze(d *Stats, node *graph.Node, a *Access) Resolution {
	obj := t.lookup(d, a)
	if obj.hist != nil || !a.Region.IsFull() {
		return t.analyzeRegion(d, node, obj, a)
	}
	switch a.Mode {
	case ModeIn:
		return t.analyzeIn(d, node, obj)
	case ModeOut:
		return t.analyzeOut(d, node, obj, a)
	case ModeInOut:
		return t.analyzeInOut(d, node, obj, a)
	}
	panic("deps: invalid access mode")
}

// hintAffinity records on node the worker that executed the producer of
// the version an access touches, when that producer has already
// completed.  The last qualifying access wins; tasks with a pending
// producer are released by its completion and placed by releasedBy
// instead.
func (t *Tracker) hintAffinity(node *graph.Node, v *version) {
	if !t.AffinityHints || !v.written {
		return
	}
	if p := v.producer.Load(); p == nil {
		node.SetAffinity(int(v.executedBy))
	} else if p.Done() {
		node.SetAffinity(p.ExecutedBy())
	}
}

// trueDep accounts one read-after-write dependency of node on the
// producer of v (unwritten versions are pre-existing data).  The
// physical edge is added only while the producer is pending; the
// counter increments either way, keeping Stats.TrueEdges deterministic
// at any worker count.  So does the taint of a poisoned producer travel
// either way: along the edge, or — once the producer completed — from
// what its completion recorded in the version (AddEdge covers a
// producer that completes in between).
func (t *Tracker) trueDep(d *Stats, node *graph.Node, v *version) {
	if !v.written {
		return
	}
	d.TrueEdges++
	if p := v.producer.Load(); p != nil {
		t.g.AddEdge(p, node)
	} else if v.poisoned {
		node.MarkPoisoned()
	}
}

func (t *Tracker) analyzeIn(d *Stats, node *graph.Node, obj *object) Resolution {
	v := obj.cur
	t.trueDep(d, node, v)
	t.hintAffinity(node, v)
	// The list is read only by falseEdges and flipToRegioned, which prune
	// it themselves; here completed readers are dropped when the list is
	// full, instead of growing it — one walk per len(readers) reads, not
	// one per read, and at most twice the live readers of its last walk.
	if len(v.readers) == cap(v.readers) {
		v.pruneReaders()
	}
	v.readers = t.readers.Append(v.readers, node.Ref())
	v.counts.Add(oneReader)
	node.AddHold((*readerHold)(v))
	return Resolution{Instance: v.instance}
}

// supersede installs nv as the object's current version.  When the
// write happened in place (instances shared), ownership of pooled
// storage moves to nv; either way the old version is retired, so its
// instance returns to the pool once its remaining consumers drain.
func (t *Tracker) supersede(obj *object, v, nv *version, renamed bool, bytes int64) {
	if renamed {
		nv.owned, nv.bytes = true, bytes
		obj.diverged = true
	} else {
		nv.owned, nv.bytes = v.owned, v.bytes
		v.owned = false
	}
	obj.setCurrent(nv)
}

// analyzeOut never reads the previous version, so the new one starts
// clean whatever that version's producer did.
func (t *Tracker) analyzeOut(d *Stats, node *graph.Node, obj *object, a *Access) Resolution {
	v := obj.cur
	hazard := v.producerPending() || v.liveReaders()
	res := Resolution{Instance: v.instance}
	var bytes int64
	renamed := false
	if hazard {
		if t.DisableRenaming {
			t.falseEdges(d, node, v, true)
		} else {
			res.Instance, bytes = t.pool.acquire(a)
			res.Renamed, renamed = true, true
			d.Renames++
		}
	} else if !t.DisableRenaming && v.written {
		// Dead WAW: the previous version was task-written, but its
		// producer has completed and every reader drained, so the
		// overwrite proceeds in place — no rename, no fresh storage.
		d.RenamesElided++
	}
	if !renamed {
		// The write lands in the previous version's storage, so the
		// producer's worker cache hint is real.  A renamed write
		// targets fresh pooled storage the hinted worker never touched
		// — no hint (a renamed *inout* still hints: its seed copy
		// reads the hinted worker's hot data).
		t.hintAffinity(node, v)
	}
	t.supersede(obj, v, t.newVersion(node, res.Instance), renamed, bytes)
	return res
}

// falseEdges materializes the hazards of a write over v as edges (the
// DisableRenaming ablation): WAR from every live reader and, when the
// write does not read v, WAW from a pending producer.
func (t *Tracker) falseEdges(d *Stats, node *graph.Node, v *version, waw bool) {
	if p := v.pendingProducer(); waw && p != nil {
		t.g.AddEdge(p, node)
		d.FalseEdges++
	}
	v.pruneReaders()
	for _, r := range v.readers {
		t.g.AddEdge(r.Node(), node)
		d.FalseEdges++
	}
}

func (t *Tracker) analyzeInOut(d *Stats, node *graph.Node, obj *object, a *Access) Resolution {
	v := obj.cur
	res := Resolution{Instance: v.instance}
	t.trueDep(d, node, v) // RAW: the task reads the old value
	t.hintAffinity(node, v)
	var bytes int64
	renamed := false
	if v.liveReaders() {
		if t.DisableRenaming {
			t.falseEdges(d, node, v, false)
		} else {
			// Rename: write into acquired storage seeded from the
			// previous version.  The RAW edge above guarantees the
			// source is complete when the copy runs; the extra
			// reference below guarantees the pool does not recycle the
			// source instance before the copy has happened.
			res.Instance, bytes = t.pool.acquire(a)
			res.CopyFrom = v.instance
			res.Copy = a.Copy
			res.Renamed, renamed = true, true
			v.counts.Add(oneRef)
			node.AddHold((*sourceHold)(v))
			d.Renames++
			d.RenameCopies++
		}
	} else if !t.DisableRenaming && v.written && !v.producerPending() {
		// Dead WAR/WAW: every reader of the task-written previous
		// version drained and its producer completed — update in place,
		// skipping both the rename and the inout seed copy.
		d.RenamesElided++
	}
	t.supersede(obj, v, t.newVersion(node, res.Instance), renamed, bytes)
	return res
}

// analyzeRegion handles accesses on region-tracked objects: every
// overlapping, still-incomplete earlier access where at least one side
// writes becomes an edge.
func (t *Tracker) analyzeRegion(d *Stats, node *graph.Node, obj *object, a *Access) Resolution {
	if obj.hist == nil {
		t.flipToRegioned(d, obj)
	}
	if a.Region.Empty() {
		return Resolution{Instance: obj.cur.instance} // touches nothing
	}
	// Read-read never orders: a reader meets writers only.
	reads, writes := a.Mode.Reads(), a.Mode.Writes()
	obj.hist.scan(&a.Region, writes, func(e *regionEntry) bool {
		t.g.AddEdge(e.task.Node(), node)
		if reads && e.writes {
			d.TrueEdges++
		} else {
			d.FalseEdges++
		}
		return true
	})
	obj.hist.insert(regionEntry{region: a.Region, task: node.Ref(), writes: writes})
	return Resolution{Instance: obj.cur.instance}
}

// flipToRegioned converts a versioned object into region mode, seeding the
// access history from the current version's pending producer and readers.
func (t *Tracker) flipToRegioned(d *Stats, obj *object) {
	obj.hist = newRegionHistory()
	d.RegionObjects++
	v := obj.cur
	if p := v.pendingProducer(); p != nil {
		obj.hist.insert(regionEntry{region: Full, task: p.Ref(), writes: true})
	}
	v.pruneReaders()
	for _, r := range v.readers {
		obj.hist.insert(regionEntry{region: Full, task: r})
	}
	v.readers = t.readers.Free(v.readers, v.read0[:0])
	// Region mode keeps no per-access reference counts (renaming of
	// partial objects is out of scope, exactly as in the 2008 runtime),
	// so a diverged current version's storage cannot be recycled safely:
	// forfeit it from pooled management and let the garbage collector
	// handle it, as the seed did for every renamed instance.
	if v.owned {
		v.owned = false
		t.pool.forfeit(v.bytes)
	}
}

// pendingWriters calls visit for each still-incomplete task that writes
// data overlapping region r of the object at key, once per access, until
// visit returns false.
func (t *Tracker) pendingWriters(key uintptr, r *Region, visit func(*graph.Node) bool) {
	obj := t.objects[key]
	if obj == nil {
		return
	}
	if obj.hist != nil {
		obj.hist.scan(r, false, func(e *regionEntry) bool { return visit(e.task.Node()) })
	} else if p := obj.cur.pendingProducer(); p != nil {
		visit(p)
	}
}

// WriterPending reports whether a still-incomplete task writes data
// overlapping the given region of the object at key.  The runtime's
// WaitOn primitive blocks (and helps execute tasks) until none does,
// after which the main thread may safely read the region.
func (t *Tracker) WriterPending(key uintptr, r Region) bool {
	found := false
	t.pendingWriters(key, &r, func(*graph.Node) bool {
		found = true
		return false
	})
	return found
}

// PendingWriters returns the tasks WriterPending tests for, each once; a
// diagnostic.
func (t *Tracker) PendingWriters(key uintptr, r Region) []*graph.Node {
	var out []*graph.Node
	t.pendingWriters(key, &r, func(n *graph.Node) bool {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// CurrentInstance returns the storage holding the logically current
// contents of the object at key (the latest version after any renaming),
// or nil if the object was never tracked.  The main thread must WaitOn
// the object first for the contents to be meaningful.
func (t *Tracker) CurrentInstance(key uintptr) any {
	obj := t.objects[key]
	if obj == nil {
		return nil
	}
	return obj.cur.instance
}

// SyncObject copies the logically-current contents of the object at key
// back into the user's original storage if renaming moved them, and
// resets the version chain onto the original storage.  It must only be
// called when no task touching the object is pending (after WaitOn or a
// barrier).  It reports whether a copy was performed.
func (t *Tracker) SyncObject(key uintptr) bool {
	obj := t.objects[key]
	return obj != nil && t.sync(obj)
}

// SyncAll applies SyncObject to every tracked object and returns the
// number of copies performed.  The runtime calls it from Barrier so that,
// as in SMPSs, renaming stays invisible: after a barrier the program sees
// all results in the variables it named.  It must only be called with no
// pending tasks.
func (t *Tracker) SyncAll() int {
	copies := 0
	for _, obj := range t.objects {
		if t.sync(obj) {
			copies++
		}
	}
	return copies
}

func (t *Tracker) sync(obj *object) bool {
	if !obj.diverged {
		return false
	}
	if obj.cur.producerPending() {
		panic("deps: sync-back of an object with a pending writer")
	}
	if obj.copier == nil {
		panic("deps: diverged object has no copier")
	}
	obj.copier(obj.original, obj.cur.instance)
	// Retired only now that its contents are copied out, so the pool
	// cannot recycle the instance mid-copy.  Any late readers of it still
	// hold references; the pool gets the instance back only when the last
	// of them completes.
	obj.setCurrent(t.newVersion(nil, obj.original))
	obj.diverged = false
	return true
}

// Forget drops all tracking state for the object at key; the next access
// re-registers it with whatever storage the access names.  Used by
// programs that recycle buffers for unrelated data.
//
// Contract: Forget does NOT sync renamed contents back — if the object
// has diverged, the logically-current contents in renamed storage are
// discarded and the user's original storage keeps whatever it last
// held.  Call SyncObject (or WaitOn/Barrier) first if the contents
// matter.  The object's current renamed instance is released back to
// the recycling pool once its remaining consumers complete, so Forget
// never leaks pool accounting; superseded versions already manage
// themselves through their reference counts.
func (t *Tracker) Forget(key uintptr) {
	if obj := t.objects[key]; obj != nil {
		delete(t.objects, key)
		obj.setCurrent(nil)
	}
}
