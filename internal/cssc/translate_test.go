package cssc

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestTranslateDirectives checks every program-level pragma rewrites to
// its runtime call.
func TestTranslateDirectives(t *testing.T) {
	src := `int main() {
	#pragma css start
	work();
	#pragma css barrier
	#pragma css wait on(x, y[3])
	#pragma css mutex lock(m)
	#pragma css mutex unlock(m)
	#pragma css finish
	return 0;
}
`
	out, tasks, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 0 {
		t.Fatalf("expected no tasks, got %d", len(tasks))
	}
	for _, want := range []string{
		"css_start();",
		"css_barrier();",
		"css_wait_on(&x);",
		"css_wait_on(&y[3]);",
		"css_mutex_lock(&m);",
		"css_mutex_unlock(&m);",
		"css_finish();",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "#pragma css") {
		t.Fatalf("a css pragma survived translation:\n%s", out)
	}
	if !strings.Contains(out, "\twork();") {
		t.Fatalf("plain statement was disturbed:\n%s", out)
	}
}

// TestTranslateCallSites checks the Fig. 1 pattern: the pragma line is
// dropped, the prototype stays (sequential fallback), and statement
// calls become css_submit_ adapters.
func TestTranslateCallSites(t *testing.T) {
	src := `#pragma css task input(a, b) inout(c)
void sgemm_t(float a[M][M], float b[M][M], float c[M][M]);

void mm(float ***A, float ***B, float ***C) {
	for (int i = 0; i < N; i++)
		for (int j = 0; j < N; j++)
			for (int k = 0; k < N; k++)
				sgemm_t(A[i][k], B[k][j], C[i][j]);
}
`
	out, tasks, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].Name != "sgemm_t" {
		t.Fatalf("task not recorded: %+v", tasks)
	}
	if !strings.Contains(out, "void sgemm_t(float a[M][M]") {
		t.Fatalf("prototype was disturbed:\n%s", out)
	}
	if !strings.Contains(out, "css_submit_sgemm_t(A[i][k], B[k][j], C[i][j]);") {
		t.Fatalf("task call not rewritten:\n%s", out)
	}
	if strings.Contains(out, "#pragma") {
		t.Fatalf("pragma line survived:\n%s", out)
	}
}

// TestTranslateDefinitionNotRewritten: a later *definition* of the task
// (type identifier before the name) must stay a definition.
func TestTranslateDefinitionNotRewritten(t *testing.T) {
	src := `#pragma css task inout(a)
void spotrf_t(float a[M][M]);

void spotrf_t(float a[M][M]) {
	potrf(a);
}
void driver() {
	spotrf_t(block);
}
`
	out, _, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "void spotrf_t(float a[M][M]) {") {
		t.Fatalf("definition was rewritten:\n%s", out)
	}
	if !strings.Contains(out, "css_submit_spotrf_t(block);") {
		t.Fatalf("call was not rewritten:\n%s", out)
	}
}

// TestTranslateSkipsLiteralsAndComments: task names inside strings and
// line comments must not be rewritten.
func TestTranslateSkipsLiteralsAndComments(t *testing.T) {
	src := `#pragma css task inout(a)
void f_t(float a[4]);

void g() {
	printf("calling f_t(x) now");
	f_t(x); // f_t(x) does the work
}
`
	out, _, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `printf("calling f_t(x) now");`) {
		t.Fatalf("string literal was rewritten:\n%s", out)
	}
	if !strings.Contains(out, "css_submit_f_t(x); // f_t(x) does the work") {
		t.Fatalf("call or trailing comment wrong:\n%s", out)
	}
}

// TestTranslateFoldedPragma: backslash-continued pragmas (Fig. 7 style)
// fold into one logical line.
func TestTranslateFoldedPragma(t *testing.T) {
	src := `#pragma css task input(data{i1..j1}, data{i2..j2}, i1, j1, i2, j2) \
	output(dest{i1..j2})
void seqmerge(ELM data[N], long i1, long j1, long i2, long j2, ELM dest[N]);
`
	_, tasks, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].Name != "seqmerge" {
		t.Fatalf("folded pragma not parsed: %+v", tasks)
	}
	var regions int
	for _, m := range tasks[0].Mentions {
		if m.Region != nil {
			regions++
		}
	}
	if regions != 3 {
		t.Fatalf("expected 3 region mentions, got %d", regions)
	}
}

// TestTranslateUnknownPragma rejects misspelled css directives.
func TestTranslateUnknownPragma(t *testing.T) {
	if _, _, err := Translate("#pragma css berrier\n"); err == nil {
		t.Fatal("unknown css pragma accepted")
	}
}

// TestTranslateNonCSSPragmaPassesThrough: other pragmas are not ours.
func TestTranslateNonCSSPragmaPassesThrough(t *testing.T) {
	src := "#pragma once\n#pragma omp parallel\n"
	out, _, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#pragma once") || !strings.Contains(out, "#pragma omp parallel") {
		t.Fatalf("foreign pragma disturbed:\n%s", out)
	}
}

// TestTranslateWaitOnErrors: malformed wait clauses must be rejected.
func TestTranslateWaitOnErrors(t *testing.T) {
	for _, src := range []string{
		"#pragma css wait\n",
		"#pragma css wait on\n",
		"#pragma css wait on()\n",
		"#pragma css mutex grab(m)\n",
	} {
		if _, _, err := Translate(src); err == nil {
			t.Fatalf("malformed pragma accepted: %q", src)
		}
	}
}

// TestTranslateHighPriorityTask: clause info is preserved on recorded
// tasks.
func TestTranslateHighPriorityTask(t *testing.T) {
	src := `#pragma css task highpriority inout(a)
void diag_t(float a[8]);
`
	_, tasks, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || !tasks[0].HighPriority {
		t.Fatalf("highpriority lost: %+v", tasks)
	}
}

// TestTranslateNeverPanics is the robustness property: arbitrary input
// must produce output or an error, never a panic.
func TestTranslateNeverPanics(t *testing.T) {
	property := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _, _ = Translate(string(raw))
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Targeted hostile inputs beyond what quick tends to generate.
	for _, src := range []string{
		"#pragma css task input(",
		"#pragma css task input(a{1..})\nvoid f(float a[4]);",
		"#pragma css wait on(((((",
		"#pragma css task\n",
		"#pragma css task inout(a)\n", // pragma with no declaration after
		"\\\n\\\n\\",
		"#pragma css mutex lock",
		"f_t(\"unterminated",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Translate panicked on %q: %v", src, r)
				}
			}()
			_, _, _ = Translate(src)
		}()
	}
}

// TestTranslateFeedsGenerate: the whole C-program path — Translate
// parses the prototypes well enough that its tasks compile through the
// Go code generator, completing the §II pipeline.
func TestTranslateFeedsGenerate(t *testing.T) {
	src := `#pragma css task input(a, b) inout(c)
void sgemm_t(float a[M][M], float b[M][M], float c[M][M]);

#pragma css task highpriority inout(a)
void spotrf_t(float a[M][M]) {
	potrf(a);
}

void driver() {
	sgemm_t(x, y, z);
	spotrf_t(z);
	#pragma css barrier
}
`
	_, tasks, err := Translate(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	for _, task := range tasks {
		if len(task.Params) != len(task.MentionsOf("a"))+len(task.MentionsOf("b"))+len(task.MentionsOf("c")) {
			t.Fatalf("task %s: params %d not bound from prototype", task.Name, len(task.Params))
		}
	}
	code, err := Generate(tasks, Options{Package: "gen"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SubmitSgemmT", "SubmitSpotrfT", "NewHighPriorityTaskDef"} {
		if !strings.Contains(string(code), want) {
			t.Fatalf("generated code missing %s:\n%s", want, code)
		}
	}
}
