package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// atomicfield enforces one bug class: a struct field that is accessed
// through sync/atomic anywhere must be accessed through sync/atomic
// everywhere.  A field that starts out set-once and later gains a
// concurrent atomic writer keeps its old plain reads, and each of them
// races the new writer; the race detector only catches it when a test
// happens to interleave the two sites.
//
// The analyzer collects, program-wide, every field passed by address
// to a sync/atomic function, then flags any other selector access to
// one of those fields in the current unit.  Composite-literal keys are
// idents, not selectors, so pre-publication initialization stays
// exempt; fields of the typed atomic.* wrappers need no rule because
// the type system already forbids plain access.
func init() {
	Register(&Analyzer{
		Name: "atomicfield",
		Doc:  "fields accessed via sync/atomic must be accessed atomically at every site",
		Run:  runAtomicField,
	})
}

// atomicFieldUse is one &x.f argument of a sync/atomic call: the field
// (by declaration position) and the selector node that is the sanctioned
// atomic access.
type atomicFieldUse struct {
	field token.Pos // field declaration
	sel   token.Pos // the exempt &x.f selector position
}

// atomicFieldUses scans one unit for sync/atomic calls taking field
// addresses.
func atomicFieldUses(u *Unit) []atomicFieldUse {
	var uses []atomicFieldUse
	for _, f := range u.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(u.Info, call)
			if fn == nil || pkgPathOf(fn) != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				unary, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || unary.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(unary.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fld := fieldSelection(u.Info, sel); fld != nil {
					uses = append(uses, atomicFieldUse{field: fld.Pos(), sel: sel.Pos()})
				}
			}
			return true
		})
	}
	return uses
}

func runAtomicField(pass *Pass) error {
	// Program-wide collection so a unit that only reads a field plainly
	// still learns the field is atomic elsewhere (e.g. an external test
	// peeking at a counter the runtime updates atomically).
	atomic := map[token.Pos]bool{} // field decl -> is atomic
	exempt := map[token.Pos]bool{} // selector positions that ARE the atomic access
	for _, u := range pass.Prog.Units {
		for _, use := range atomicFieldUses(u) {
			atomic[use.field] = true
			exempt[use.sel] = true
		}
	}
	if len(atomic) == 0 {
		return nil
	}
	pass.inspect(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fld := fieldSelection(pass.Unit.Info, sel)
		if fld == nil || !atomic[fld.Pos()] || exempt[sel.Pos()] {
			return true
		}
		owner := ownerName(fld)
		if owner == "" {
			owner = "struct"
		}
		pass.Reportf(sel.Sel.Pos(), "field %s.%s is accessed with sync/atomic elsewhere; this non-atomic access races it", owner, fld.Name())
		return true
	})
	return nil
}

// ownerName finds the named struct type declaring field fld, for
// diagnostics only ("" when the struct is anonymous).
func ownerName(fld *types.Var) string {
	if fld.Pkg() == nil {
		return ""
	}
	scope := fld.Pkg().Scope()
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
			if st.Field(i).Pos() == fld.Pos() {
				return name
			}
		}
	}
	return ""
}
