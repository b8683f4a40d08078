package cssc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// fig2 is the exact task set of paper Fig. 2.
const fig2 = `
#pragma css task input(a, b) inout(c)
void sgemm_t(float a[M][M], float b[M][M], float c[M][M]);

#pragma css task inout(a)
void spotrf_t(float a[M][M]);

#pragma css task input(a) inout(b)
void strsm_t(float a[M][M], float b[M][M]);

#pragma css task input(a) inout(b)
void ssyrk_t(float a[M][M], float b[M][M]);
`

// fig7 is the task set of paper Fig. 7 (mergesort with array regions),
// including the backslash continuation.
const fig7 = `
#pragma css task input(data{i1..j1}, data{i2..j2}, i1, j1, i2, j2) \
	output(dest{i1..j2})
void seqmerge(ELM data[N], long i1, long j1, long i2, long j2, ELM dest[N]);

#pragma css task inout(data{i..j}) input(i, j)
void seqquick(ELM data[N], long i, long j);
`

// fig10 is the on-demand blocking task of paper Fig. 10 with its opaque
// flat-matrix parameter.
const fig10 = `
#pragma css task input(i, j) output(a)
void get_block(int i, int j, void *A, float a[M][M]);
`

func TestParseFig2(t *testing.T) {
	tasks, err := Parse(fig2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("parsed %d tasks, want 4", len(tasks))
	}
	sgemm := tasks[0]
	if sgemm.Name != "sgemm_t" || len(sgemm.Params) != 3 {
		t.Fatalf("sgemm_t parsed wrong: %+v", sgemm)
	}
	if len(sgemm.MentionsOf("a")) != 1 || sgemm.MentionsOf("a")[0].Mode != ModeIn {
		t.Fatalf("a must be input")
	}
	if sgemm.MentionsOf("c")[0].Mode != ModeInOut {
		t.Fatalf("c must be inout")
	}
	for _, p := range sgemm.Params {
		if !p.IsArray() || len(p.ArrayDims) != 2 || p.ArrayDims[0] != "M" {
			t.Fatalf("param %q dims parsed wrong: %+v", p.Name, p)
		}
	}
	if tasks[1].Name != "spotrf_t" || tasks[1].MentionsOf("a")[0].Mode != ModeInOut {
		t.Fatalf("spotrf_t parsed wrong")
	}
}

func TestParseFig7WithContinuationAndRegions(t *testing.T) {
	tasks, err := Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("parsed %d tasks, want 2", len(tasks))
	}
	sm := tasks[0]
	if sm.Name != "seqmerge" {
		t.Fatalf("name = %q", sm.Name)
	}
	dm := sm.MentionsOf("data")
	if len(dm) != 2 {
		t.Fatalf("data must be mentioned twice (two regions), got %d", len(dm))
	}
	r := dm[0].Region
	if len(r) != 1 || r[0].Kind != RegionRange || r[0].A != "i1" || r[0].B != "j1" {
		t.Fatalf("first data region = %+v", r)
	}
	if sm.MentionsOf("dest")[0].Mode != ModeOut {
		t.Fatalf("dest must be output")
	}
	if len(sm.MentionsOf("i1")) != 1 {
		t.Fatalf("scalar i1 must be mentioned")
	}
	sq := tasks[1]
	if sq.MentionsOf("data")[0].Mode != ModeInOut || sq.MentionsOf("data")[0].Region[0].Kind != RegionRange {
		t.Fatalf("seqquick data clause parsed wrong: %+v", sq.MentionsOf("data"))
	}
}

func TestParseOpaquePointer(t *testing.T) {
	tasks, err := Parse(fig10)
	if err != nil {
		t.Fatal(err)
	}
	gb := tasks[0]
	var av *Param
	for i := range gb.Params {
		if gb.Params[i].Name == "A" {
			av = &gb.Params[i]
		}
	}
	if av == nil || !av.IsOpaque() {
		t.Fatalf("A must parse as an opaque void*: %+v", gb.Params)
	}
}

func TestParseSpanAndFullRegions(t *testing.T) {
	src := `
#pragma css task input(v{off:len}) output(w{})
void f(float v[N], float w[N], int off, int len);
`
	tasks, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	vr := tasks[0].MentionsOf("v")[0].Region
	if vr[0].Kind != RegionSpan || vr[0].A != "off" || vr[0].B != "len" {
		t.Fatalf("span region parsed wrong: %+v", vr)
	}
	wr := tasks[0].MentionsOf("w")[0].Region
	if wr[0].Kind != RegionFull {
		t.Fatalf("full region parsed wrong: %+v", wr)
	}
}

func TestParseHighPriority(t *testing.T) {
	src := `
#pragma css task highpriority inout(a)
void spotrf_t(float a[M][M]);
`
	tasks, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !tasks[0].HighPriority {
		t.Fatalf("highpriority clause not parsed")
	}
}

func TestParseMultiDimRegion(t *testing.T) {
	src := `
#pragma css task inout(a{r0..r1}{c0..c1})
void f(float a[N][N], int r0, int r1, int c0, int c1);
`
	tasks, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	r := tasks[0].MentionsOf("a")[0].Region
	if len(r) != 2 || r[1].A != "c0" {
		t.Fatalf("2-D region parsed wrong: %+v", r)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown clause": `
#pragma css task sideways(a)
void f(float a[M]);`,
		"unknown parameter in clause": `
#pragma css task input(zz)
void f(float a[M]);`,
		"opaque in clause": `
#pragma css task input(p)
void f(void *p);`,
		"scalar as output": `
#pragma css task output(i)
void f(int i);`,
		"unannotated array": `
#pragma css task
void f(float a[M]);`,
		"non-void return": `
#pragma css task input(a)
int f(float a[M]);`,
		"missing semicolon": `
#pragma css task input(a)
void f(float a[M])`,
		"stray tokens": `
void f(float a[M]);`,
		"scalar region": `
#pragma css task input(i{0..4})
void f(int i, float a[M]);`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestGenerateFig2(t *testing.T) {
	tasks, err := Parse(fig2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(tasks, Options{Package: "tasks"})
	if err != nil {
		t.Fatal(err)
	}
	src := string(out)
	for _, want := range []string{
		"package tasks",
		`var SgemmT = core.NewTaskDef("sgemm_t"`,
		"var SgemmTImpl func(a []float32, b []float32, c []float32)",
		"func SubmitSgemmT(rt *core.Runtime, a []float32, b []float32, c []float32)",
		"core.In(a)",
		"core.In(b)",
		"core.InOut(c)",
		"SgemmTImpl(args.F32(0), args.F32(1), args.F32(2))",
		`var SpotrfT = core.NewTaskDef("spotrf_t"`,
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("generated code missing %q:\n%s", want, src)
		}
	}
}

func TestGenerateFig7Regions(t *testing.T) {
	tasks, err := Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(tasks, Options{Package: "tasks", Typedefs: map[string]string{"ELM": "int64"}})
	if err != nil {
		t.Fatal(err)
	}
	src := string(out)
	for _, want := range []string{
		"core.InR(data, core.Interval(int64(i1), int64(j1)))",
		"core.InR(data, core.Interval(int64(i2), int64(j2)))",
		"core.OutR(dest, core.Interval(int64(i1), int64(j2)))",
		"core.InOutR(data, core.Interval(int64(i), int64(j)))",
		// data appears twice in the arg list, so dest is argument 6 and
		// scalars start at 2.
		"SeqmergeImpl(args.I64(0), args.Int64(2), args.Int64(3), args.Int64(4), args.Int64(5), args.I64(6))",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("generated code missing %q:\n%s", want, src)
		}
	}
}

func TestGenerateOpaqueAndSpanAndHP(t *testing.T) {
	src := `
#pragma css task highpriority input(i, j) output(a{off:n})
void g(int i, long j, void *raw, float a[N], int off, int n);
`
	tasks, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(tasks, Options{Package: "p"})
	if err != nil {
		t.Fatal(err)
	}
	gen := string(out)
	for _, want := range []string{
		"core.NewHighPriorityTaskDef",
		"core.Opaque(raw)",
		"core.OutR(a, core.Span(int64(off), int64(n)))",
		"raw any",
		"args.Opaque(2)",
	} {
		if !strings.Contains(gen, want) {
			t.Fatalf("generated code missing %q:\n%s", want, gen)
		}
	}
}

func TestGenerateUnknownTypeFails(t *testing.T) {
	tasks, err := Parse(`
#pragma css task input(a)
void f(quaternion a[M]);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(tasks, Options{Package: "p"}); err == nil {
		t.Fatalf("unknown C type must fail generation")
	}
}

func TestExportName(t *testing.T) {
	cases := map[string]string{
		"sgemm_t":   "SgemmT",
		"seqquick":  "Seqquick",
		"get_block": "GetBlock",
		"a_b_c":     "ABC",
	}
	for in, want := range cases {
		if got := exportName(in); got != want {
			t.Fatalf("exportName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLexerComments(t *testing.T) {
	src := `
// line comment
#pragma css task input(a) /* trailing */
void f(float a[M]); /* block
spanning lines */
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
	if _, err := lex("/* unterminated"); err == nil {
		t.Fatalf("unterminated comment must fail lexing")
	}
}

func TestPragmaCommentRoundTrip(t *testing.T) {
	tasks, err := Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	c := pragmaComment(tasks[0])
	for _, want := range []string{"input(", "data{i1..j1}", "output(dest{i1..j2})"} {
		if !strings.Contains(c, want) {
			t.Fatalf("pragma comment %q missing %q", c, want)
		}
	}
}

// FuzzCsscParse: the front end takes source text from outside the
// program, so Parse and Translate never panic and every error they
// return names the line it is about.
func FuzzCsscParse(f *testing.F) {
	for _, path := range []string{"testdata/golden.css", "../gentasks/decls.css"} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("#pragma css task input(a{0..n}) inout(b[4]) highpriority\nvoid t(float a[8], float *b, int n);\n")
	f.Add("int main() {\n#pragma css wait on(x, y[3])\n#pragma css mutex lock(m)\n\tt(a, b);\n}\n")
	f.Add("#pragma css task input(a{)\nvoid t(float a[")
	f.Add("/* unterminated")
	positioned := regexp.MustCompile(`^cssc: line [0-9]+: `)
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse(src); err != nil && !positioned.MatchString(err.Error()) {
			t.Fatalf("Parse error without a position: %v", err)
		}
		if _, _, err := Translate(src); err != nil && !positioned.MatchString(err.Error()) {
			t.Fatalf("Translate error without a position: %v", err)
		}
	})
}
