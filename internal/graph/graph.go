// Package graph implements the dynamic task dependency graph at the heart
// of the SMPSs runtime.
//
// Whenever the application calls a task, the runtime adds a node to the
// graph together with edges encoding its true (read-after-write)
// dependencies on earlier tasks.  Nodes whose dependency count drops to
// zero are reported through a readiness callback, tagged with the identity
// of the worker whose task completion released them; the scheduler uses
// that tag to place the task on the releasing worker's own ready list,
// which is how SMPSs exploits data locality (paper §III).
//
// The graph keeps no reference to a completed node, so arbitrarily long
// programs run in bounded memory; a Recorder (used to reproduce Fig. 5
// of the paper) copies what it exports.  Node storage belongs to the
// caller: AddNode allocates one, Init starts a new life in storage the
// caller recycles (see Ref for the rule stale pointers follow).
package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cacheline"
	"repro/internal/recycle"
)

// NodeState enumerates the lifecycle of a task node.
type NodeState int32

// Lifecycle states of a node.  A node moves strictly forward:
// Building → Ready → Running → Done.
const (
	// StateBuilding means the node is still being analyzed; edges may be
	// added and the node must not be scheduled yet.
	StateBuilding NodeState = iota
	// StateReady means all input dependencies are satisfied and the node
	// is queued (or about to be queued) for execution.
	StateReady
	// StateRunning means a worker is executing the task body.
	StateRunning
	// StateDone means the task finished and its outgoing edges have been
	// released.
	StateDone
)

// String returns a short human-readable state name.
func (s NodeState) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// MainThread is the worker identity used for tasks that become ready at
// submission time (on the main thread) rather than by a worker completing
// one of their predecessors.
const MainThread = -1

// Node is one task instance in the dependency graph.
type Node struct {
	// ID is the task's invocation order, starting at 1 like the node
	// numbering of Fig. 5 in the paper.
	ID int64
	// Kind identifies the task definition (used to color Fig. 5 and to
	// aggregate per-task-type statistics).
	Kind int
	// Label is the task definition name, e.g. "spotrf_t".
	Label string
	// Priority marks the task as highpriority (paper §II): it is
	// scheduled as soon as possible, bypassing locality lists.
	Priority bool
	// Payload carries the runtime's task record (argument bindings,
	// function pointer).  The graph never inspects it.
	Payload any

	// pending is the number of edges into the node, once Seal has added
	// it, less the predecessors that completed.  A completion before Seal
	// makes it negative, so only the last of these operations, whichever
	// it is, reads zero: readiness can fire neither twice nor before
	// analysis has finished.  A life ends with the zero the next begins
	// with.
	pending atomic.Int32
	// npred counts the edges AddEdge appended.  It belongs to the thread
	// building the node, which hands it to pending in Seal.
	npred int32
	// state holds the NodeState and, in poisonBit, the taint of an
	// upstream failure: the node's inputs may be garbage, so the executor
	// must skip the task body (while still completing the node, so edges,
	// observers and memory bookkeeping drain normally).  The taint is set
	// on the node itself when its body fails, and on its successors by
	// complete.  A transition keeps it (see setState).
	state atomic.Int32

	// executedBy records, biased by +1 so the zero value means "not
	// executed", the worker identity that completed the task.  It is
	// written by Complete immediately before the Done state store, so
	// any thread that observes Done also observes the worker id — the
	// dependency tracker reads it to compute affinity hints.
	executedBy int32
	// affinity is the scheduler placement hint, biased by +1 so the
	// zero value means "no hint": the worker that last wrote one of the
	// task's operands.  Written by the submitting thread during
	// analysis (before Seal) and read by the scheduling policy when the
	// node becomes ready.
	affinity int32

	mu sync.Mutex
	// succs starts in the room Reserve gave and spills into the graph's
	// store (Graph.spill), which gets it back when the node completes.
	succs []*Node
	// holds are the references registered with AddHold, released exactly
	// once by Complete.
	holds []Holder
	// room is the inline storage Reserve gave, or nil.
	room *Room
}

// Room is inline storage for a node's first successors and holds, which
// its owner allocates beside the node (see Reserve).
type Room struct {
	succs [2]*Node
	holds [3]Holder
}

const (
	// poisonBit is the taint in Node.state, above every NodeState.
	poisonBit = 1 << 8
	stateMask = poisonBit - 1
)

// Holder is a reference a task keeps on something until it completes:
// the dependency tracker's holds on data versions.  ReleaseHold drops
// the reference n registered with AddHold.  It runs on the completing
// worker's goroutine, after n's successors were released, and must not
// block.
type Holder interface {
	ReleaseHold(n *Node)
}

// Ref is a reference to one life of a node whose storage may be started
// over with Init once that life has completed: the node's ID, unique per
// graph, is the generation.  Whoever keeps a node pointer past the
// node's completion without a way to learn of it — the tracker's reader
// lists and region history, pruned lazily — keeps a Ref and asks Done
// before every dereference.  A Ref must be tested on the thread that
// calls Init for the storage, which is what keeps the answer true until
// that thread has used it.
type Ref struct {
	n  *Node
	id int64
}

// Ref returns a reference to the node's current life.
func (n *Node) Ref() Ref { return Ref{n: n, id: n.ID} }

// Node returns the referenced node; meaningful only while Done is false.
func (r Ref) Node() *Node { return r.n }

// Done reports whether the referenced life has completed: the state is
// Done, or the storage already carries a later life.  The state is
// loaded first; Init stores the new ID before the new state, so a state
// that is not Done belongs to the ID read after it.
func (r Ref) Done() bool { return r.n.Done() || r.n.ID != r.id }

// State returns the node's current lifecycle state.
func (n *Node) State() NodeState { return NodeState(n.state.Load() & stateMask) }

// setState moves the node to s, keeping its taint.  Every transition has
// the state word to itself: taints race only each other, while the node
// is Building, and the thread that moves it on does so after the pending
// count told it that every predecessor, and the builder, is through with
// the node.
func (n *Node) setState(s NodeState) { n.state.Store(int32(s) | n.state.Load()&poisonBit) }

// Done reports whether the task has completed.
func (n *Node) Done() bool { return n.State() == StateDone }

// NumPredecessors returns the number of true-dependency edges into the
// node, for the thread that builds it.
func (n *Node) NumPredecessors() int { return int(n.npred) }

// ExecutedBy returns the worker identity that completed the task, or
// MainThread if the task has not completed.  Meaningful only after
// Done() reports true.
func (n *Node) ExecutedBy() int { return int(n.executedBy) - 1 }

// SetAffinity records a scheduler placement hint: the worker whose
// cache plausibly holds the task's operands.  Must be called before
// Seal (the hint is published by the node's readiness transition).
func (n *Node) SetAffinity(worker int) {
	if worker >= 0 {
		n.affinity = int32(worker) + 1
	}
}

// Affinity returns the placement hint set by SetAffinity, or -1.
func (n *Node) Affinity() int { return int(n.affinity) - 1 }

// MarkPoisoned taints the node: the runtime calls it when the task's
// body fails (under a poisoning failure policy), and Complete then
// spreads the taint to every successor the completion releases.
//
// A caller must be ordered before the node's next transition, or
// setState's load-then-store may lose the taint: the builder's thread
// while the node is Building, a predecessor before it decrements the
// node's pending count, or the thread running the node.  Nothing may
// taint a Ready or queued node from the side.
func (n *Node) MarkPoisoned() { n.state.Or(poisonBit) }

// Poisoned reports whether the node was tainted by MarkPoisoned or by
// the completion of a poisoned predecessor.
func (n *Node) Poisoned() bool { return n.state.Load()&poisonBit != 0 }

// Reserve gives a zero node room for its first successors and holds in
// storage the caller owns, allocated beside the node, so that a task
// with few of either touches no other memory for them.  A successor list
// that outgrows its room spills into the graph's store and returns to
// the room when the node completes; a hold list spills to the heap and
// keeps what backs it across Init.
func (n *Node) Reserve(r *Room) {
	n.room = r
	n.succs, n.holds = r.succs[:0], r.holds[:0]
}

// AddHold registers a reference the node keeps until it completes:
// Complete calls h.ReleaseHold(n) exactly once, after the node's
// successors have been released.  The dependency tracker uses holds to
// count down version reference counts the moment a consumer finishes,
// instead of rediscovering completions with table-wide Done() scans.
// The node must still be in the Building state, on the thread building
// it.
func (n *Node) AddHold(h Holder) { n.holds = append(n.holds, h) }

// Graph is a dynamic task dependency graph.
//
// The submitting (main) thread adds nodes and edges; worker threads
// complete nodes concurrently.  All cross-thread coordination happens via
// per-node atomics plus a short critical section per edge endpoint.  Of
// the graph itself workers read the first line, the submitter owns the
// second, and a completion writes only the store a spilled successor
// list returns to.
type Graph struct {
	readyCB func(n *Node, releasedBy int) //smpss:writer=shared
	// rec is nil unless a Recorder is attached, so Init and AddEdge pay
	// one load for it, not a lock.
	rec atomic.Pointer[Recorder] //smpss:writer=shared

	_ cacheline.Pad

	nextID atomic.Int64 //smpss:writer=submitter
	// spill is the store successor lists outgrowing their room move to:
	// AddEdge takes, complete gives back.  Each class pads its own sides.
	spill recycle.Spill[*Node]
}

// New creates a graph.  ready is invoked exactly once per node when its
// last input dependency is satisfied; releasedBy identifies the worker
// whose completion released the node, or MainThread if the node was ready
// at submission.  ready may be invoked from any thread and must not block.
func New(ready func(n *Node, releasedBy int)) *Graph {
	if ready == nil {
		panic("graph: nil ready callback")
	}
	return &Graph{readyCB: ready}
}

// Added returns the total number of nodes ever added.
func (g *Graph) Added() int64 { return g.nextID.Load() }

// AddNode creates a node in the Building state.  The caller must add all
// edges with AddEdge and then call Seal exactly once.
func (g *Graph) AddNode(kind int, label string, priority bool, payload any) *Node {
	n := new(Node)
	g.Init(n, kind, label, priority, payload)
	return n
}

// Init is AddNode in storage the caller owns: a zero Node, or one whose
// previous life in this graph has completed and which nothing
// dereferences any more except through a Ref.  The node must not be
// copied afterwards.
func (g *Graph) Init(n *Node, kind int, label string, priority bool, payload any) {
	n.ID = g.nextID.Add(1)
	n.Kind = kind
	n.Label = label
	n.Priority = priority
	n.Payload = payload
	n.executedBy, n.affinity, n.npred = 0, 0, 0
	if n.pending.Load() != 0 {
		panic("graph: Init of a node that never became ready")
	}
	// Last, after the ID: see Ref.Done.  It clears the taint too.
	n.state.Store(int32(StateBuilding))
	if r := g.rec.Load(); r != nil {
		r.addNode(n)
	}
}

// AddEdge records a true dependency from → to: "to" may not start until
// "from" completes.  If "from" has already completed no edge is added,
// but "to" still inherits its taint: a dependent analyzed after a failed
// task finished is as poisoned as one analyzed before.  "to" must still
// be in the Building state.
func (g *Graph) AddEdge(from, to *Node) {
	if from == to {
		return
	}
	from.mu.Lock()
	// The state is final once Done is stored, taint included, and "from"
	// cannot start a new life under its own lock.
	if st := from.state.Load(); st&stateMask == int32(StateDone) {
		from.mu.Unlock()
		if st&poisonBit != 0 {
			to.MarkPoisoned()
		}
		return
	}
	from.succs = g.spill.Append(from.succs, to)
	from.mu.Unlock()
	// From here a concurrent Complete(from) may decrement to.pending at
	// any moment, to below zero until Seal.
	to.npred++

	if r := g.rec.Load(); r != nil {
		r.addEdge(from.ID, to.ID)
	}
}

// Seal ends the construction of n.  If no incomplete predecessors remain,
// the readiness callback fires on the calling (main) thread with
// releasedBy = MainThread.
func (g *Graph) Seal(n *Node) {
	// A node without edges is in no successor list: nothing else counts.
	if n.npred == 0 || n.pending.Add(n.npred) == 0 {
		g.fireReady(n, MainThread)
	}
}

func (g *Graph) fireReady(n *Node, by int) {
	n.setState(StateReady)
	g.readyCB(n, by)
}

// MarkRunning transitions a node from Ready to Running.
func (g *Graph) MarkRunning(n *Node) { n.setState(StateRunning) }

// Complete marks n done and releases its successors.  Successors whose
// dependency count reaches zero fire the readiness callback with
// releasedBy = worker, implementing the SMPSs policy that a task made
// ready by a worker lands on that worker's own ready list.
func (g *Graph) Complete(n *Node, worker int) {
	g.complete(n, worker, false)
}

// CompleteChain is Complete for a worker prepared to run one released
// successor inline (the scheduler's successor chaining).  When the
// completion releases exactly one successor and it is not
// high-priority, that node is returned in the Ready state *without*
// firing the readiness callback: it never enters a queue, so no thief
// can ever claim it, and the caller must execute it.  In every other
// case (zero released, several released, or a high-priority successor)
// it behaves exactly like Complete and returns nil.
func (g *Graph) CompleteChain(n *Node, worker int) *Node {
	return g.complete(n, worker, true)
}

func (g *Graph) complete(n *Node, worker int, chain bool) *Node {
	// Publish the executing worker before the Done store: a reader that
	// observes Done (the tracker's affinity-hint probe) is guaranteed to
	// see the worker id.
	n.executedBy = int32(worker) + 1
	n.mu.Lock()
	poison := n.state.Load() & poisonBit
	n.state.Store(int32(StateDone) | poison)
	n.mu.Unlock()
	// Done, stored under the lock, closed the successor list: AddEdge
	// appends nothing any more, so it is read without the lock.
	succs := n.succs

	// kept is the candidate for inline chaining: the first non-priority
	// successor this completion released, withheld from the readiness
	// callback until a second release proves the completion fans out.
	var kept *Node
	for _, s := range succs {
		// Taint before the decrement: whoever's decrement reaches zero
		// (this thread or a concurrent predecessor's) fires readiness
		// after this store, so the executor always observes the poison.
		if poison != 0 {
			s.MarkPoisoned()
		}
		if s.pending.Add(-1) != 0 {
			continue
		}
		if chain && kept == nil && !s.Priority {
			kept = s
			continue
		}
		if kept != nil {
			// A second successor became ready: chaining would hide
			// parallelism, so both go to the scheduler.
			g.fireReady(kept, worker)
			kept = nil
		}
		chain = false
		g.fireReady(s, worker)
	}
	if kept != nil {
		kept.setState(StateReady)
	}
	var room []*Node
	if n.room != nil {
		room = n.room.succs[:]
	}
	n.succs = g.spill.Free(succs, room)
	// Holds drop after successors are released: dependents launch
	// first, memory bookkeeping second.
	for _, h := range n.holds {
		h.ReleaseHold(n)
	}
	clear(n.holds)
	n.holds = n.holds[:0]
	n.Payload = nil
	return kept
}
