package graph

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Recorder retains the full structure of a graph (nodes and edges) so it
// can be exported after execution.  It reproduces the information shown in
// Fig. 5 of the paper: one node per task invocation, numbered in
// invocation order, colored by task kind, with edges for true
// dependencies only.
//
// Recording is optional and off by default because a long-running program
// generates an unbounded number of tasks.
type Recorder struct {
	// mu serializes the graph's appends: nodes come from the submitting
	// thread only, but nothing makes that a rule for edges.
	mu    sync.Mutex
	nodes []recNode
	edges []recEdge
}

type recNode struct {
	id    int64
	kind  int
	label string
	prio  bool
}

type recEdge struct{ from, to int64 }

// Attach starts recording every subsequently added node and edge.
// It must be called before any tasks are submitted.
func (g *Graph) Attach(r *Recorder) { g.rec.Store(r) }

// Detach stops recording and returns the recorder.
func (g *Graph) Detach() *Recorder { return g.rec.Swap(nil) }

func (r *Recorder) addNode(n *Node) {
	r.mu.Lock()
	r.nodes = append(r.nodes, recNode{id: n.ID, kind: n.Kind, label: n.Label, prio: n.Priority})
	r.mu.Unlock()
}

func (r *Recorder) addEdge(from, to int64) {
	r.mu.Lock()
	r.edges = append(r.edges, recEdge{from: from, to: to})
	r.mu.Unlock()
}

// NumNodes returns the number of recorded task instances.
func (r *Recorder) NumNodes() int { return len(r.nodes) }

// NumEdges returns the number of recorded true-dependency edges.
func (r *Recorder) NumEdges() int { return len(r.edges) }

// KindCounts returns, per task label, the number of recorded instances.
func (r *Recorder) KindCounts() map[string]int {
	m := make(map[string]int)
	for _, n := range r.nodes {
		m[n.label]++
	}
	return m
}

// Roots returns the IDs of recorded nodes that have no incoming edges,
// i.e. the tasks that were ready the moment they were submitted.
func (r *Recorder) Roots() []int64 {
	hasPred := make(map[int64]bool, len(r.nodes))
	for _, e := range r.edges {
		hasPred[e.to] = true
	}
	var roots []int64
	for _, n := range r.nodes {
		if !hasPred[n.id] {
			roots = append(roots, n.id)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	return roots
}

// ReadyAfter returns, sorted by ID, the recorded tasks outside the done
// set whose predecessors are all inside it: the tasks that could start
// the moment exactly that set has completed.  It reproduces observations
// like the paper's §IV note that after running tasks 1 and 6 of the 6×6
// Cholesky graph, task 51 can start.
func (r *Recorder) ReadyAfter(done map[int64]bool) []int64 {
	blocked := make(map[int64]bool)
	for _, e := range r.edges {
		if !done[e.from] {
			blocked[e.to] = true
		}
	}
	var ready []int64
	for _, n := range r.nodes {
		if !done[n.id] && !blocked[n.id] {
			ready = append(ready, n.id)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	return ready
}

// CriticalPathLength returns the number of nodes on the longest dependency
// chain.  For the 6×6 Cholesky of Fig. 5 this is the depth of the graph;
// it bounds the achievable parallelism.
func (r *Recorder) CriticalPathLength() int {
	succ := make(map[int64][]int64, len(r.nodes))
	indeg := make(map[int64]int, len(r.nodes))
	for _, n := range r.nodes {
		indeg[n.id] = 0
	}
	for _, e := range r.edges {
		succ[e.from] = append(succ[e.from], e.to)
		indeg[e.to]++
	}
	depth := make(map[int64]int, len(r.nodes))
	var queue []int64
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
			depth[id] = 1
		}
	}
	best := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if depth[id] > best {
			best = depth[id]
		}
		for _, s := range succ[id] {
			if depth[id]+1 > depth[s] {
				depth[s] = depth[id] + 1
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return best
}

// dotPalette maps task kinds to the fill colors used when rendering the
// graph, cycling if there are more kinds than colors.
var dotPalette = []string{
	"#e6550d", "#3182bd", "#31a354", "#756bb1", "#fdae6b",
	"#9ecae1", "#a1d99b", "#bcbddc", "#d62728", "#8c564b",
}

// WriteDOT renders the recorded graph in Graphviz DOT format, one node
// per task numbered by invocation order and colored by task kind, with
// edges for true dependencies — the same presentation as Fig. 5.
func (r *Recorder) WriteDOT(w io.Writer, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [style=filled, fontname=\"Helvetica\"];\n")

	// Emit a legend-friendly stable kind→color assignment in order of
	// first appearance.
	colorOf := make(map[int]string)
	for _, n := range r.nodes {
		if _, ok := colorOf[n.kind]; !ok {
			colorOf[n.kind] = dotPalette[len(colorOf)%len(dotPalette)]
		}
	}
	for _, n := range r.nodes {
		shape := "ellipse"
		if n.prio {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&b, "  n%d [label=\"%d\", tooltip=%q, fillcolor=%q, shape=%s];\n",
			n.id, n.id, n.label, colorOf[n.kind], shape)
	}
	for _, e := range r.edges {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.from, e.to)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
