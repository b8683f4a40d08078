// Package lint is the project's hand-rolled static-analysis engine:
// a package loader/typechecker built on the standard library's go/ast,
// go/parser and go/types (no golang.org/x/tools — the module cache is
// offline), a small per-analyzer registry, and a driver that turns
// analyzer findings into position-accurate diagnostics with
// `//lint:allow <analyzer> <reason>` suppressions.
//
// The analyzers encode invariants the runtime states in prose — mixed
// atomic/plain field access, a line of padding between fields with
// different writers, four-file trace-event wiring, discarded Submit
// errors, chaos-site installation and disarmed-path shape, and
// canonical stripe lock order — so `smpssvet ./...` (cmd/smpssvet) can
// enforce in CI what until now only reviewer memory enforced.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is the loaded, typechecked view of the packages an analysis
// run covers.  Units are typechecked against a shared FileSet, so
// token.Pos values compare and resolve consistently across units — the
// analyzers rely on that to match objects (by declaration position)
// between a package's primary unit and external test units.
type Program struct {
	Fset *token.FileSet
	// Root is the directory Load was given; import paths of module
	// packages are Root-relative under ModulePath.
	Root string
	// ModulePath is the module path from Root's go.mod, or "" when Root
	// has no go.mod (golden-test fixtures).
	ModulePath string
	Units      []*Unit
	// Sources is every non-test file the load parsed: the units' own and
	// those of module packages the units only import, which a rule that
	// reads declarations' comments (cacheline's writer tags) needs to
	// judge a type that embeds a struct of such a package.
	Sources []*ast.File
}

// Unit is one typechecked analysis unit: either a package's primary
// unit (its non-test files plus any in-package _test.go files) or an
// external test package (package foo_test), which typechecks as its
// own package importing the primary one.
type Unit struct {
	// Path is the unit's import path (the primary package's path; an
	// external test unit carries the primary path too and is
	// distinguished by XTest).  Fixture programs without a go.mod use
	// the Root-relative directory as the path.
	Path  string
	Dir   string
	XTest bool
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// TestFile reports whether the file at pos is a _test.go file.
func (p *Program) TestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.File(pos).Name(), "_test.go")
}

// dirFiles is the parsed, build-tag-filtered content of one directory.
type dirFiles struct {
	dir     string
	pkgName string      // primary package name, "" if the dir has only external tests
	prim    []*ast.File // non-test files
	itest   []*ast.File // in-package _test.go files
	xtest   []*ast.File // package <pkg>_test files
}

// checked is one completed typecheck: the package, the files that form
// it and the Info recorded while checking them.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader loads and typechecks packages from source.  It doubles as the
// types.Importer for module-internal import paths, chaining to the
// standard source importer for GOROOT packages (the module cache is
// offline and GOROOT ships no export data, so everything typechecks
// from source).
type loader struct {
	fset    *token.FileSet
	root    string
	modPath string
	std     types.Importer
	dirs    map[string]*dirFiles // abs dir -> parsed files
	clean   map[string]*checked  // import path -> non-test package
	loading map[string]bool      // import cycle detection
}

// Load parses and typechecks the packages matched by patterns under
// root.  Patterns are root-relative: "./..." (everything), "./x/..."
// (a subtree) or "./x" (one directory).  Directories named "testdata",
// hidden directories and "_"-prefixed directories are skipped.
func Load(root string, patterns ...string) (*Program, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:    token.NewFileSet(),
		root:    absRoot,
		modPath: readModulePath(absRoot),
		dirs:    map[string]*dirFiles{},
		clean:   map[string]*checked{},
		loading: map[string]bool{},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)

	dirs, err := ld.matchDirs(patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: ld.fset, Root: absRoot, ModulePath: ld.modPath}
	for _, dir := range dirs {
		df, err := ld.parseDir(dir)
		if err != nil {
			return nil, err
		}
		path := ld.importPath(dir)
		if len(df.prim) > 0 {
			var c *checked
			if len(df.itest) == 0 {
				// No in-package tests: the primary unit is exactly the
				// clean package, so load (and memoize) it as such —
				// importing units then share its object identities.
				c, err = ld.loadClean(path)
			} else {
				c, err = ld.check(path, append(append([]*ast.File{}, df.prim...), df.itest...))
			}
			if err != nil {
				return nil, err
			}
			prog.Units = append(prog.Units, &Unit{
				Path: path, Dir: dir, Files: c.files, Pkg: c.pkg, Info: c.info,
			})
		}
		if len(df.xtest) > 0 {
			c, err := ld.check(path+"_test", df.xtest)
			if err != nil {
				return nil, err
			}
			prog.Units = append(prog.Units, &Unit{
				Path: path, Dir: dir, XTest: true, Files: c.files, Pkg: c.pkg, Info: c.info,
			})
		}
	}
	for _, df := range ld.dirs {
		prog.Sources = append(prog.Sources, df.prim...)
	}
	return prog, nil
}

// readModulePath extracts the module path from root/go.mod, or "".
func readModulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// importPath maps an absolute directory under root to its import path.
func (ld *loader) importPath(dir string) string {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil || rel == "." {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	switch {
	case ld.modPath == "" && rel == "":
		return "p" // fixture rooted at a single package
	case ld.modPath == "":
		return rel
	case rel == "":
		return ld.modPath
	default:
		return ld.modPath + "/" + rel
	}
}

// pathDir maps an import path produced by importPath back to its
// directory.
func (ld *loader) pathDir(path string) string {
	switch {
	case ld.modPath != "":
		path = strings.TrimPrefix(strings.TrimPrefix(path, ld.modPath), "/")
	case path == "p":
		path = "" // fixture rooted at a single package
	}
	return filepath.Join(ld.root, filepath.FromSlash(path))
}

// inModule reports whether path names a package of the loaded module.
func (ld *loader) inModule(path string) bool {
	if ld.modPath == "" {
		return false
	}
	return path == ld.modPath || strings.HasPrefix(path, ld.modPath+"/")
}

// matchDirs resolves patterns to the sorted set of directories that
// contain at least one buildable .go file.
func (ld *loader) matchDirs(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	set := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		dir := filepath.Join(ld.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			set[dir] = true
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			set[p] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var dirs []string
	for dir := range set {
		if df, err := ld.parseDir(dir); err == nil && (len(df.prim) > 0 || len(df.xtest) > 0) {
			dirs = append(dirs, dir)
		} else if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir scans, build-tag-filters and parses the .go files of one
// directory, classifying them into primary, in-package test and
// external test files.  Results are memoized.
func (ld *loader) parseDir(dir string) (*dirFiles, error) {
	if df, ok := ld.dirs[dir]; ok {
		return df, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	df := &dirFiles{dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		file, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkgName := file.Name.Name
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			df.prim = append(df.prim, file)
			df.pkgName = pkgName
		case strings.HasSuffix(pkgName, "_test"):
			df.xtest = append(df.xtest, file)
		default:
			df.itest = append(df.itest, file)
		}
	}
	ld.dirs[dir] = df
	return df, nil
}

// loadClean typechecks (and memoizes) the non-test package at an
// import path — the version of the package other packages import.
func (ld *loader) loadClean(path string) (*checked, error) {
	if c, ok := ld.clean[path]; ok {
		return c, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)
	df, err := ld.parseDir(ld.pathDir(path))
	if err != nil {
		return nil, fmt.Errorf("lint: loading %q: %w", path, err)
	}
	if len(df.prim) == 0 {
		return nil, fmt.Errorf("lint: package %q has no non-test Go files", path)
	}
	c, err := ld.check(path, df.prim)
	if err != nil {
		return nil, err
	}
	ld.clean[path] = c
	return c, nil
}

// sizes is the gc compiler's layout for the architecture the analysis
// runs on: what the typechecker folds unsafe.Sizeof with and what the
// cacheline analyzer measures field offsets by.
var sizes = types.SizesFor("gc", build.Default.GOARCH)

// check typechecks files as one package with the loader as importer.
func (ld *loader) check(path string, files []*ast.File) (*checked, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var errs []error
	conf := types.Config{
		Importer: ld,
		Sizes:    sizes,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, ld.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: typechecking %q: %w", path, errs[0])
	}
	return &checked{pkg: pkg, files: files, info: info}, nil
}

// Import implements types.Importer: module-internal paths typecheck
// from source under Root; everything else defers to the standard
// source importer (GOROOT).
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if ld.inModule(path) {
		c, err := ld.loadClean(path)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	}
	return ld.std.Import(path)
}
