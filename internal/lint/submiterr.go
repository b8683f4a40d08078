package lint

import (
	"go/ast"
	"go/types"
)

// submiterr enforces the PR 4 review-bug class: a call to an in-module
// Submit (Context.Submit, Batch.Submit, a hosted model's) that returns
// an error must not discard it.  A dropped Submit error silently no-ops
// the work — a closed or canceled context refuses the task, the caller
// barriers on nothing, and the "result" is whatever stale memory held,
// which is how a factorization once went missing in review.
//
// Flagged forms: a bare call statement, `go`/`defer` of the call, and
// an assignment that blanks the error result.  Only non-test files are
// checked: tests deliberately drive Submit into refusal.
func init() {
	Register(&Analyzer{
		Name: "submiterr",
		Doc:  "errors returned by Submit must not be discarded",
		Run:  runSubmitErr,
	})
}

// submitErrCallee reports whether call invokes an in-module function
// or method named Submit whose last result is an error,
// returning a printable name.
func submitErrCallee(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(pass.Unit.Info, call)
	if fn == nil || fn.Name() != "Submit" {
		return "", false
	}
	if !inModulePkg(pass.Prog, fn.Pkg()) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return "", false
	}
	name := fn.Name()
	if recv := sig.Recv(); recv != nil {
		name = types.TypeString(recv.Type(), types.RelativeTo(fn.Pkg())) + "." + name
	}
	return name, true
}

func runSubmitErr(pass *Pass) error {
	for _, f := range pass.Unit.Files {
		if pass.Prog.TestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(stmt.X).(*ast.CallExpr); ok {
					if name, ok := submitErrCallee(pass, call); ok {
						pass.Reportf(call.Pos(), "error returned by %s is discarded", name)
					}
				}
			case *ast.GoStmt:
				if name, ok := submitErrCallee(pass, stmt.Call); ok {
					pass.Reportf(stmt.Call.Pos(), "error returned by %s is discarded by go statement", name)
				}
			case *ast.DeferStmt:
				if name, ok := submitErrCallee(pass, stmt.Call); ok {
					pass.Reportf(stmt.Call.Pos(), "error returned by %s is discarded by defer statement", name)
				}
			case *ast.AssignStmt:
				if len(stmt.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				name, ok := submitErrCallee(pass, call)
				if !ok {
					return true
				}
				// The error is the callee's last result, so it lands in
				// the last left-hand operand.
				last, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident)
				if ok && last.Name == "_" {
					pass.Reportf(call.Pos(), "error returned by %s is blanked instead of handled", name)
				}
			}
			return true
		})
	}
	return nil
}
