package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"repro/internal/kernels"
)

// metric is one reported number.  Samples is present where the value is
// a median over repetitions; -compare reads the spread from it.
type metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// The metric names are frozen: BENCHMARK.json lists the first two tables
// (a test holds them to it) and later performance claims cite them.

// endToEndUnits are the gated metrics, from the untraced pass only.
var endToEndUnits = map[string]string{
	"wall_s":               "s",      // first Submit → Barrier returned, output check excluded
	"alloc_bytes_per_task": "B/task", // MemStats.TotalAlloc over the repetition ÷ tasks submitted
	"setup_s":              "s",      // start → first timed repetition: inputs, pool, engine, warm-ups
}

// perLayerUnits are the traced pass's metrics, reported for every
// workload; a count or ratio is 0 where the workload bypasses the layer.
var perLayerUnits = map[string]string{
	"core.submit_ns":             "ns",
	"core.drain_s":               "s",
	"core.allocs_per_task":       "allocs/task",
	"core.overhead_share":        "ratio",
	"deps.analyze_inout_ns":      "ns",
	"deps.analyze_multi_ns":      "ns",
	"deps.analyze_region_ns":     "ns",
	"deps.analyze_rename_ns":     "ns",
	"deps.analyze_inout_allocs":  "allocs/op",
	"deps.analyze_multi_allocs":  "allocs/op",
	"deps.analyze_region_allocs": "allocs/op",
	"deps.analyze_rename_allocs": "allocs/op",
	"deps.renames":               "count",
	"deps.renames_elided":        "count",
	"deps.rename_copies":         "count",
	"deps.pool_hit_ratio":        "ratio",
	"deps.true_edges":            "count",
	"deps.false_edges":           "count",
	"graph.insert_ns":            "ns",
	"graph.complete1_ns":         "ns",
	"graph.complete8_ns":         "ns",
	"graph.edges_per_task":       "edges/task",
	"sched.pushpop_ns":           "ns",
	"sched.steal_ns":             "ns",
	"sched.wake_ns":              "ns",
	"sched.steals":               "count",
	"sched.steal_yield":          "tasks/steal",
	"sched.parks":                "count",
	"sched.spills":               "count",
	"kernels.gemm_gflops":        "gflop/s",
	"kernels.syrk_gflops":        "gflop/s",
	"kernels.trsm_gflops":        "gflop/s",
	"kernels.potrf_gflops":       "gflop/s",
	"kernels.share":              "ratio",
	"apps.tasks":                 "count",
	"apps.mean_task_us":          "us",
	"apps.seq_s":                 "s",
	"apps.speedup_vs_seq":        "ratio",
	"apps.efficiency":            "ratio",
	"trace.overhead_ratio":       "ratio",
}

// infoUnits are printed and written to the report beside the tables
// above, but are not in BENCHMARK.json: either derived from a listed
// metric or meaningful on one workload only.
var infoUnits = map[string]string{
	"wall_hi_s":       "s",   // the highest percentile of wall_s with ten samples beyond it
	"tasks_per_s":     "1/s", // tasks ÷ wall_s
	"setup_first_s":   "s",   // the first, cold set-up of the process
	"kernels.busy_s":  "s",   // cholesky_tiles: summed kernel spans of a repetition
	"unattributed_ns": "ns",  // chain_null: end-to-end ns/task − the isolated layers on its path
}

// value is a reported number under one of the frozen names.
func value(name string, v float64) metric {
	for _, units := range []map[string]string{endToEndUnits, perLayerUnits, infoUnits} {
		if unit, ok := units[name]; ok {
			return metric{Value: v, Unit: unit}
		}
	}
	panic("benchmark: metric " + name + " is in no table")
}

// sampled is a value that is the median of repeated samples.
func sampled(name string, s summary) metric {
	m := value(name, s.Median)
	m.Samples = &s
	return m
}

// workloadReport is one workload's share of a report.  Metrics holds the
// names BENCHMARK.json lists; Info holds what is printed beside them.
type workloadReport struct {
	Name      string            `json:"name"`
	Ops       int64             `json:"ops"`
	OpsFailed int64             `json:"ops_failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info,omitempty"`
}

// hostInfo stamps a report with what the numbers depend on.
type hostInfo struct {
	OS         string         `json:"os"`
	Arch       string         `json:"arch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	AVX2       bool           `json:"avx2"`
	Provider   string         `json:"provider"`
	Engine     kernels.Params `json:"engine_params"`
	Commit     string         `json:"git_commit"`
}

func stampHost(procs int) hostInfo {
	p := kernels.ByName(providerName)
	// The compiled-in blocking: this process never applies a machine
	// profile, so what EngineParams returns is what the build carries.
	params, _ := kernels.EngineParams(p.Name)
	h := hostInfo{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		AVX2:       kernels.SimdAvailable(),
		Provider:   p.Name,
		Engine:     params,
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// report is what a run writes to -out and what -compare reads.  The
// untraced and the traced pass of one workload are separate entries.
type report struct {
	Host     hostInfo         `json:"host"`
	Seed     int64            `json:"seed"`
	Seconds  int              `json:"seconds"`
	EndToEnd []workloadReport `json:"end_to_end"`
	PerLayer []workloadReport `json:"per_layer"`
}

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeJSON writes v as indented JSON, creating the directory.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
