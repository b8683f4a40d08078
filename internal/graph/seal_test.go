package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSealRacesCompletions: while the builder adds the edges of a node
// and seals it, the node's predecessors complete on other goroutines.
// However the two sides interleave, readiness fires exactly once and
// never before Seal — also when every predecessor finished before the
// first edge, and when every one finished between the last edge and
// Seal, where the pending count passes through its lowest value.
func TestSealRacesCompletions(t *testing.T) {
	const rounds = 300
	type order int
	const (
		racing order = iota
		predsFirst
		predsBeforeSeal
	)
	for _, k := range []int{1, 2, 8} {
		for _, ord := range []order{racing, predsFirst, predsBeforeSeal} {
			t.Run(fmt.Sprintf("preds=%d/order=%d", k, ord), func(t *testing.T) {
				var sealing atomic.Bool
				var fired, early atomic.Int32
				g := New(func(n *Node, by int) {
					if n.Kind != 1 {
						return // a predecessor
					}
					fired.Add(1)
					if !sealing.Load() {
						early.Add(1)
					}
				})
				for round := 0; round < rounds; round++ {
					preds := make([]*Node, k)
					for i := range preds {
						preds[i] = g.AddNode(0, "pred", false, nil)
						g.Seal(preds[i])
					}
					sealing.Store(false)
					fired.Store(0)

					var start, done sync.WaitGroup
					start.Add(1)
					for i, p := range preds {
						done.Add(1)
						go func() {
							defer done.Done()
							start.Wait()
							g.Complete(p, i)
						}()
					}
					if ord == predsFirst {
						start.Done()
						done.Wait()
					}
					n := g.AddNode(1, "node", false, nil)
					if ord == racing {
						start.Done()
					}
					for _, p := range preds {
						g.AddEdge(p, n)
					}
					if ord == predsBeforeSeal {
						start.Done()
						done.Wait()
						if fired.Load() != 0 {
							t.Fatalf("round %d: ready before Seal with all %d predecessors done", round, k)
						}
					}
					sealing.Store(true)
					g.Seal(n)
					done.Wait()

					if fired.Load() != 1 || early.Load() != 0 {
						t.Fatalf("round %d: ready fired %d times, %d of them before Seal; want once, after",
							round, fired.Load(), early.Load())
					}
					if n.State() != StateReady {
						t.Fatalf("round %d: state %v after readiness", round, n.State())
					}
				}
			})
		}
	}
}

// poisonProbe is a hold that records, like the tracker's producer hold,
// whether the node it is released by completed poisoned.
type poisonProbe struct{ saw bool }

func (p *poisonProbe) ReleaseHold(n *Node) { p.saw = n.Poisoned() }

// TestPoisonSurvivesTransitions: the taint shares a word with the state,
// so every transition has to carry it.  Whether it was set while the
// node was Building, by a predecessor's completion or by the body, the
// executor sees it when the node is ready, the holds see it at
// completion, and it reaches the successors — with and without a
// MarkRunning before Complete, which not every user of the graph calls.
func TestPoisonSurvivesTransitions(t *testing.T) {
	for _, source := range []string{"building", "predecessor", "body", "none"} {
		for _, markRunning := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/markRunning=%v", source, markRunning), func(t *testing.T) {
				want := source != "none"
				var atReady []bool // the node's taint whenever a node becomes ready
				g := New(func(n *Node, by int) { atReady = append(atReady, n.Poisoned()) })

				pred := g.AddNode(0, "pred", false, nil)
				g.Seal(pred)
				n := g.AddNode(0, "n", false, nil)
				probe := &poisonProbe{}
				n.AddHold(probe)
				g.AddEdge(pred, n)
				succ := g.AddNode(0, "succ", false, nil)
				g.AddEdge(n, succ)
				g.Seal(succ)

				if source == "building" {
					n.MarkPoisoned()
				}
				g.Seal(n)
				if n.State() != StateBuilding {
					t.Fatalf("state %v with an open predecessor", n.State())
				}
				if source == "predecessor" {
					pred.MarkPoisoned()
				}
				g.Complete(pred, 0) // straight from Ready

				wantBeforeBody := want && source != "body"
				if n.State() != StateReady || len(atReady) != 2 || atReady[1] != wantBeforeBody {
					t.Fatalf("ready: state %v, taint seen at readiness %v, want ready and %v", n.State(), atReady, wantBeforeBody)
				}
				if markRunning {
					g.MarkRunning(n)
					if n.State() != StateRunning || n.Poisoned() != wantBeforeBody {
						t.Fatalf("running: state %v poisoned %v, want running and %v", n.State(), n.Poisoned(), wantBeforeBody)
					}
				}
				if source == "body" {
					n.MarkPoisoned()
				}
				g.Complete(n, 0)
				if !n.Done() || n.Poisoned() != want || probe.saw != want {
					t.Fatalf("done %v, poisoned %v, hold saw %v; want done, %v, %v", n.Done(), n.Poisoned(), probe.saw, want, want)
				}
				if succ.State() != StateReady || succ.Poisoned() != want {
					t.Fatalf("successor: state %v poisoned %v, want ready and %v", succ.State(), succ.Poisoned(), want)
				}
				// A dependent analysed after the completion gets it too.
				late := g.AddNode(0, "late", false, nil)
				g.AddEdge(n, late)
				if late.Poisoned() != want || late.NumPredecessors() != 0 {
					t.Fatalf("late dependent: poisoned %v with %d edges, want %v and none", late.Poisoned(), late.NumPredecessors(), want)
				}
			})
		}
	}
}
