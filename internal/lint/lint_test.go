package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectations of a `// want "..."` comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants parses the `// want "regex"` expectations out of a
// loaded fixture program, keyed by file:line.
func collectWants(t *testing.T, prog *Program) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, u := range prog.Units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
						pat, err := strconv.Unquote(`"` + m[1] + `"`)
						if err != nil {
							t.Fatalf("%s: bad want string %q: %v", key, m[1], err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
						}
						wants[key] = append(wants[key], re)
					}
				}
			}
		}
	}
	return wants
}

// TestGolden runs each analyzer over its testdata fixtures and checks
// the diagnostics against the // want expectations, both directions:
// every diagnostic must be wanted at its exact file:line, and every
// want must be matched.
func TestGolden(t *testing.T) {
	for _, a := range Analyzers() {
		cases, err := filepath.Glob(filepath.Join("testdata", a.Name, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(cases) == 0 {
			t.Errorf("analyzer %s has no testdata fixtures", a.Name)
		}
		for _, dir := range cases {
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				continue
			}
			t.Run(a.Name+"/"+filepath.Base(dir), func(t *testing.T) {
				prog, err := Load(dir, "./...")
				if err != nil {
					t.Fatalf("Load(%s): %v", dir, err)
				}
				diags, err := Run(prog, []*Analyzer{a})
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				wants := collectWants(t, prog)
				for _, d := range diags {
					key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
					matched := -1
					for i, re := range wants[key] {
						if re.MatchString(d.Message) {
							matched = i
							break
						}
					}
					if matched < 0 {
						t.Errorf("unexpected diagnostic %s", d)
						continue
					}
					wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
				}
				for key, res := range wants {
					for _, re := range res {
						t.Errorf("missing diagnostic at %s matching %q", key, re)
					}
				}
			})
		}
	}
}

// TestRegistry pins the six shipped analyzers by name.
func TestRegistry(t *testing.T) {
	want := []string{"atomicfield", "cacheline", "chaossite", "lockorder", "submiterr", "traceevent"}
	var got []string
	for _, a := range Analyzers() {
		got = append(got, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc string", a.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("registered analyzers = %v, want %v", got, want)
	}
}

// TestByName covers -run selection, including unknown names.
func TestByName(t *testing.T) {
	as, err := ByName("submiterr,lockorder")
	if err != nil || len(as) != 2 {
		t.Fatalf("ByName: got %d analyzers, err %v", len(as), err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
	if _, err := ByName(""); err == nil {
		t.Fatal("ByName(empty) should fail")
	}
}

// TestSuppression checks that a reasoned //lint:allow hides a finding
// in both supported placements.
func TestSuppression(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "driver", "suppressed"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(prog, Analyzers())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("suppressed fixture still reports %s", d)
	}
}

// TestSuppressionValidation checks the driver rejects malformed
// suppressions: missing reason, unknown analyzer.
func TestSuppressionValidation(t *testing.T) {
	for dir, wantErr := range map[string]string{
		"badallow": "missing the mandatory reason",
		"unknown":  "unknown analyzer",
	} {
		prog, err := Load(filepath.Join("testdata", "driver", dir), "./...")
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(prog, Analyzers())
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: Run error = %v, want containing %q", dir, err, wantErr)
		}
	}
}
