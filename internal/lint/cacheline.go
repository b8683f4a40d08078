package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// cacheline enforces the layout rule of docs/ARCHITECTURE.md ("Cache-line
// ownership"): in a struct on the per-task path, fields with different
// per-task writers live at least one full 64-byte line of padding apart,
// so that no placement by the allocator puts two of them on one line.
// PR 15 showed how that breaks silently: deleting Context.renamedBytes
// moved the flag every worker reads onto the line the submitter writes
// per task, and chain_null lost 2–14 % of wall_s to a field deletion.
//
// A struct opts in by tagging its fields, in the field's doc or line
// comment:
//
//	//smpss:writer=submitter   written per task by the submitting thread
//	//smpss:writer=worker      written per task by whichever threads run,
//	                           complete, push or pop tasks (a line both
//	                           sides write is the workers': once they
//	                           write it, nothing else may sit there)
//	//smpss:writer=shared      written at construction or on rare events
//	                           only, and read by both sides
//
// In a struct with any tagged field, every field must be tagged (blank
// padding fields aside), or be a struct that is tagged itself, or an
// array of one, which is checked in place, field by field and element
// by element.  Two fields whose tags differ must have 64 bytes or more
// between the end of the first and the start of the second.  The same
// holds across the end of the struct, for its last and first field:
// array elements and heap neighbours of the same size class follow each
// other directly.  Offsets are the gc compiler's for the architecture
// the analysis runs on.
func init() {
	Register(&Analyzer{
		Name: "cacheline",
		Doc:  "struct fields tagged //smpss:writer= with different writers must be 64 bytes apart, and a tagged struct tags every field",
		Run:  runCacheLine,
	})
}

const (
	writerPrefix = "//smpss:writer="
	lineSize     = 64
)

var writerTags = map[string]bool{"submitter": true, "worker": true, "shared": true}

// writerTag returns the value of the //smpss:writer= directive among a
// field's comments, and where it stands.
func writerTag(f *ast.Field) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, writerPrefix); ok {
				tag, _, _ := strings.Cut(rest, " ")
				return tag, c.Pos()
			}
		}
	}
	return "", token.NoPos
}

// layoutField is one tagged (or, with tag "", untagged) field of a
// flattened struct: where it lies and which field of the outermost
// struct it belongs to.
type layoutField struct {
	v        *types.Var
	tag      string
	off, end int64
	top      *types.Var
}

type cacheLineCheck struct {
	pass *Pass
	tags map[token.Pos]string // field declaration -> writer tag
}

func runCacheLine(pass *Pass) error {
	c := &cacheLineCheck{pass: pass, tags: map[token.Pos]string{}}
	// Tags are collected from every source the load parsed: a tagged
	// struct of another package (recycle.FreeList inside core.Context) is
	// checked in place, whether or not its package is being analyzed.
	own := map[*ast.File]bool{}
	for _, f := range pass.Unit.Files {
		own[f] = true
	}
	for _, f := range pass.Prog.Sources {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				tag, pos := writerTag(fld)
				if pos == token.NoPos {
					continue
				}
				if !writerTags[tag] {
					if own[f] {
						pass.Reportf(pos, "unknown writer %q: want submitter, worker or shared", tag)
					}
					continue
				}
				for _, name := range fld.Names {
					c.tags[name.Pos()] = tag
				}
			}
			return true
		})
	}
	if len(c.tags) == 0 {
		return nil
	}
	for _, f := range pass.Unit.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				tn, ok := pass.Unit.Info.Defs[spec.(*ast.TypeSpec).Name].(*types.TypeName)
				if !ok {
					continue
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok && c.tagged(st) {
					c.checkStruct(tn.Name(), st)
				}
			}
		}
	}
	return nil
}

// tagged reports whether st, or a struct nested in it by value, has a
// tagged field.
func (c *cacheLineCheck) tagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if c.tags[f.Pos()] != "" {
			return true
		}
		if sub, _ := c.nested(f.Type()); sub != nil {
			return true
		}
	}
	return false
}

// nested returns the tagged struct a field of type t holds by value,
// and how many of it: one, or an array's length.
func (c *cacheLineCheck) nested(t types.Type) (*types.Struct, int64) {
	n := int64(1)
	if arr, ok := t.Underlying().(*types.Array); ok {
		t, n = arr.Elem(), arr.Len()
	}
	if sub, ok := t.Underlying().(*types.Struct); ok && c.tagged(sub) {
		return sub, n
	}
	return nil, 0
}

// flatten lists the fields of st in offset order, base bytes into the
// outermost struct, replacing a nested tagged struct by its fields.
func (c *cacheLineCheck) flatten(st *types.Struct, base int64, top *types.Var, out []layoutField) []layoutField {
	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	for i, off := range sizes.Offsetsof(fields) {
		f, owner := fields[i], top
		if owner == nil {
			owner = f
		}
		sub, n := c.nested(f.Type())
		switch tag := c.tags[f.Pos()]; {
		case tag == "" && f.Name() == "_":
		case tag == "" && sub != nil:
			size := sizes.Sizeof(sub)
			for i := int64(0); i < n; i++ {
				out = c.flatten(sub, base+off+i*size, owner, out)
			}
		default:
			out = append(out, layoutField{f, tag, base + off, base + off + sizes.Sizeof(f.Type()), owner})
		}
	}
	return out
}

func (c *cacheLineCheck) checkStruct(name string, st *types.Struct) {
	var fields []layoutField
	for _, f := range c.flatten(st, 0, nil, nil) {
		if f.tag != "" {
			fields = append(fields, f)
		} else if f.top == f.v {
			// An untagged field of a nested struct is reported where
			// that struct is declared.
			c.pass.Reportf(f.v.Pos(), "field %s.%s has no %s tag in a struct that tags its fields", name, f.v.Name(), writerPrefix)
		}
	}
	for i := 1; i < len(fields); i++ {
		a, b := fields[i-1], fields[i]
		if gap := b.off - a.end; a.tag != b.tag && gap < lineSize {
			c.pass.Reportf(b.top.Pos(), "field %s (writer=%s) starts %d bytes after %s (writer=%s) ends; different writers must be %d bytes apart",
				b.v.Name(), b.tag, gap, a.v.Name(), a.tag, lineSize)
		}
	}
	first, last := fields[0], fields[len(fields)-1]
	if gap := sizes.Sizeof(st) - last.end + first.off; first.tag != last.tag && gap < lineSize {
		c.pass.Reportf(last.top.Pos(), "%s ends %d bytes after %s (writer=%s) and starts with %s (writer=%s); as array elements or heap neighbours they must be %d bytes apart",
			name, gap, last.v.Name(), last.tag, first.v.Name(), first.tag, lineSize)
	}
}
