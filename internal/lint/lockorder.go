package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockorder enforces one discipline on striped mutexes: a struct with a
// sync.Mutex that is laid out as a slice/array element (trace.stripe,
// the scheduler's per-worker deques) is a stripe set, and holding one
// stripe while acquiring another is a deadlock waiting for two threads
// to pick opposite orders — unless the acquisition is the canonical
// ascending-index mask walk:
//
//	for m := mask; m != 0; m &= m - 1 {
//		t.stripes[bits.TrailingZeros64(m)].mu.Lock()
//	}
//
// which always locks in ascending stripe index.  The analyzer walks
// each function symbolically, counting held striped locks along
// structured control flow: a second Lock while one is held is flagged,
// as is any loop that accumulates striped locks without the canonical
// mask shape.  Balanced per-iteration lock/unlock loops (snapshot
// loops), defer-unlock, and unlock-then-panic
// escape branches all stay clean.
func init() {
	Register(&Analyzer{
		Name: "lockorder",
		Doc:  "multi-stripe lock acquisitions must follow the canonical ascending-index mask walk",
		Run:  runLockOrder,
	})
}

func runLockOrder(pass *Pass) error {
	striped := stripedTypes(pass.Unit.Pkg)
	if len(striped) == 0 {
		return nil
	}
	w := &lockWalker{pass: pass, striped: striped}
	for _, f := range pass.Unit.Files {
		if pass.Prog.TestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.walkStmts(fn.Body.List, 0)
				}
			case *ast.FuncLit:
				// Closures run on their own goroutine/stack frame as far
				// as lock discipline goes: analyze from zero held.
				w.walkStmts(fn.Body.List, 0)
			}
			return true
		})
	}
	return nil
}

// stripedTypes finds the package's stripe-set structs: named struct
// types carrying a sync.Mutex field that appear as the element type of
// a slice or array somewhere in the package's declared types.
func stripedTypes(pkg *types.Package) map[*types.Named]bool {
	scope := pkg.Scope()
	var withMutex []*types.Named
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if namedFrom(st.Field(i).Type(), "sync", "Mutex") {
				withMutex = append(withMutex, named)
				break
			}
		}
	}
	if len(withMutex) == 0 {
		return nil
	}
	striped := map[*types.Named]bool{}
	elem := func(t types.Type) types.Type {
		switch seq := t.(type) {
		case *types.Slice:
			return seq.Elem()
		case *types.Array:
			return seq.Elem()
		}
		return nil
	}
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			e := elem(st.Field(i).Type())
			if e == nil {
				continue
			}
			for _, cand := range withMutex {
				if types.Identical(e, cand) {
					striped[cand] = true
				}
			}
		}
	}
	return striped
}

type lockWalker struct {
	pass    *Pass
	striped map[*types.Named]bool
}

// stripedLockCall classifies stmt-level calls: mu.Lock()/mu.Unlock()
// where mu is the mutex field of a stripe-set struct.
func (w *lockWalker) stripedLockCall(call *ast.CallExpr) (lock, unlock bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock" {
		return false, false
	}
	recv := ast.Unparen(sel.X)
	mutexSel, ok := recv.(*ast.SelectorExpr)
	if !ok {
		return false, false
	}
	tv, ok := w.pass.Unit.Info.Types[mutexSel.X]
	if !ok {
		return false, false
	}
	t := tv.Type
	if ptr, okp := t.(*types.Pointer); okp {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !w.striped[named] {
		return false, false
	}
	return sel.Sel.Name == "Lock", sel.Sel.Name == "Unlock"
}

// isPanicCall reports a call to the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// walkStmts walks one statement list with held striped locks and
// returns the held count at the fall-through exit plus whether every
// path through the list terminates (return/panic/branch).
func (w *lockWalker) walkStmts(list []ast.Stmt, held int) (int, bool) {
	for _, s := range list {
		var terminated bool
		held, terminated = w.walkStmt(s, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) walkStmt(s ast.Stmt, held int) (int, bool) {
	switch stmt := s.(type) {
	case *ast.ExprStmt:
		call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
		if !ok {
			return held, false
		}
		if lock, unlock := w.stripedLockCall(call); lock {
			if held > 0 {
				w.pass.Reportf(call.Pos(), "striped lock acquired while another stripe is held; multi-stripe acquisition must use the canonical ascending-index mask walk")
			}
			return held + 1, false
		} else if unlock {
			return max(held-1, 0), false
		}
		if isPanicCall(w.pass.Unit.Info, call) {
			return held, true
		}
		return held, false
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the stripe held to function exit:
		// the held count stays, which is exactly the discipline — no
		// further stripes may be taken under it.
		return held, false
	case *ast.ReturnStmt:
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto leave the list; treat as terminating this
		// path (conservative for reporting, not for held counts).
		return held, true
	case *ast.BlockStmt:
		return w.walkStmts(stmt.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(stmt.Stmt, held)
	case *ast.IfStmt:
		thenHeld, thenTerm := w.walkStmts(stmt.Body.List, held)
		elseHeld, elseTerm := held, false
		if stmt.Else != nil {
			elseHeld, elseTerm = w.walkStmt(stmt.Else, held)
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return max(thenHeld, elseHeld), false
		}
	case *ast.ForStmt:
		return w.walkFor(stmt, held)
	case *ast.RangeStmt:
		return w.walkLoopBody(stmt.Body, stmt.Pos(), held)
	case *ast.SwitchStmt:
		return w.walkCases(stmt.Body, held)
	case *ast.TypeSwitchStmt:
		return w.walkCases(stmt.Body, held)
	case *ast.SelectStmt:
		return w.walkCases(stmt.Body, held)
	default:
		return held, false
	}
}

// walkCases merges the clauses of a switch/select like if branches.
func (w *lockWalker) walkCases(body *ast.BlockStmt, held int) (int, bool) {
	merged := held
	for _, clause := range body.List {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			list = c.Body
		}
		if h, term := w.walkStmts(list, held); !term {
			merged = max(merged, h)
		}
	}
	return merged, false
}

// walkFor handles for-loops: the canonical mask walk is recognized and
// counted as acquiring (or releasing) one logical stripe set; any
// other loop whose body accumulates striped locks is flagged.
func (w *lockWalker) walkFor(stmt *ast.ForStmt, held int) (int, bool) {
	if w.isCanonicalMaskLoop(stmt) {
		locks, unlocks := loopLockKind(w, stmt.Body)
		switch {
		case locks:
			if held > 0 {
				w.pass.Reportf(stmt.Pos(), "canonical mask walk entered while a stripe is already held")
			}
			return held + 1, false
		case unlocks:
			return max(held-1, 0), false
		}
		return held, false
	}
	return w.walkLoopBody(stmt.Body, stmt.Pos(), held)
}

// walkLoopBody analyzes a non-canonical loop body: per-iteration
// balanced lock/unlock is fine, a net accumulation is not.
func (w *lockWalker) walkLoopBody(body *ast.BlockStmt, pos token.Pos, held int) (int, bool) {
	after, _ := w.walkStmts(body.List, held)
	if after > held {
		w.pass.Reportf(pos, "loop accumulates striped locks without the canonical ascending-index mask walk")
	}
	return max(after, held), false
}

// isCanonicalMaskLoop matches the ascending-index acquisition shape:
// post statement `m &= m - 1` and a stripe index derived from
// bits.TrailingZeros* inside the body.
func (w *lockWalker) isCanonicalMaskLoop(stmt *ast.ForStmt) bool {
	post, ok := stmt.Post.(*ast.AssignStmt)
	if !ok || post.Tok != token.AND_ASSIGN {
		return false
	}
	usesTZ := false
	ast.Inspect(stmt.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if name := sel.Sel.Name; len(name) >= 13 && name[:13] == "TrailingZeros" {
				if fn, okf := w.pass.Unit.Info.Uses[sel.Sel].(*types.Func); okf && pkgPathOf(fn) == "math/bits" {
					usesTZ = true
				}
			}
		}
		return !usesTZ
	})
	return usesTZ
}

// loopLockKind reports whether a canonical loop body locks or unlocks
// stripes.
func loopLockKind(w *lockWalker, body *ast.BlockStmt) (locks, unlocks bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			l, u := w.stripedLockCall(call)
			locks, unlocks = locks || l, unlocks || u
		}
		return true
	})
	return locks, unlocks
}
