package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func row(median, q1, q3 float64) metric {
	return metric{Value: median, Unit: "s", Samples: &summary{N: 41, Median: median, Q1: q1, Q3: q3}}
}

func TestJudge(t *testing.T) {
	lower := contractMetric{Name: "wall_s", Better: "lower", Bound: 0.06}
	higher := contractMetric{Name: "rate", Better: "higher", Bound: 0.06}
	for _, c := range []struct {
		name string
		cm   contractMetric
		a, b metric
		want verdict
	}{
		{"within the bound", lower, row(1, 0.99, 1.01), row(1.05, 1.04, 1.06), same},
		{"slower beyond the bound", lower, row(1, 0.99, 1.01), row(1.07, 1.06, 1.08), worse},
		{"faster beyond the bound", lower, row(1, 0.99, 1.01), row(0.9, 0.89, 0.91), better},
		{"higher is better: a drop is worse", higher, row(100, 99, 101), row(90, 89, 91), worse},
		{"higher is better: a rise is better", higher, row(100, 99, 101), row(110, 109, 111), better},
		{"spread wider than the bound hides a small change", lower, row(1, 0.95, 1.05), row(1.02, 0.97, 1.07), unresolved},
		{"spread wider than the change hides it", lower, row(1, 0.9, 1.1), row(1.1, 1, 1.2), unresolved},
		{"a change beyond bound and spread is resolved", lower, row(1, 0.95, 1.05), row(1.5, 1.45, 1.55), worse},
		{"no samples: the bound alone decides", lower, metric{Value: 1}, metric{Value: 1.2}, worse},
	} {
		if got, _, _ := judge(c.cm, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64) string {
		path := filepath.Join(dir, name)
		r := report{EndToEnd: []workloadReport{{
			Name:    "chain_null",
			Metrics: map[string]metric{"wall_s": row(wall, wall*0.99, wall*1.01)},
		}}}
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contract := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(contract, []byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.06}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, slow, close := write("a.json", 1), write("slow.json", 1.2), write("close.json", 1.01)

	var out bytes.Buffer
	if anyWorse, err := compareReports(&out, contract, a, slow); err != nil || !anyWorse {
		t.Errorf("a vs slow: worse=%v err=%v\n%s", anyWorse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("no worse row printed:\n%s", out.String())
	}
	out.Reset()
	if anyWorse, err := compareReports(&out, contract, a, close); err != nil || anyWorse {
		t.Errorf("a vs close: worse=%v err=%v\n%s", anyWorse, err, out.String())
	}
	if _, err := compareReports(&out, contract, a, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing report: no error")
	}
}

// The names below are frozen: BENCHMARK.json, the program and every
// later claim must agree on them.
func TestContractMatchesProgram(t *testing.T) {
	var c contract
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, listed []contractMetric, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if unit, ok := units[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s metric %s [%s]: the program reports unit %q (present: %v)", kind, m.Name, m.Unit, unit, ok)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEndUnits)
	check("per_layer", c.PerLayer, perLayerUnits)
}
