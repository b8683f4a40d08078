// Command benchmark is the repository's one benchmark: six named
// workloads on the SMPSs runtime, every output checked against an
// independent oracle, three gated end-to-end metrics from an untraced
// pass and per-layer numbers from a separate traced pass.  It drives the
// runtime only through public functions of internal/{core,deps,graph,
// sched,kernels,linalg,apps,hypermatrix} and times them from outside.
//
//	bash benchmark/run.sh                      # every workload, both passes
//	bash benchmark/run.sh -workload chain_null -trace 0 -seed 7 -seconds 10
//	bash benchmark/run.sh -compare a.json b.json
//
// See README.md for the metric tables and BENCHMARK.json for the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// maxProcs caps the threads the benchmark uses, so that a report from a
// large host stays comparable with one from the 2–4 CPU sandboxes.
const maxProcs = 4

// config is what the flags and the host pin for a run.
type config struct {
	seed    int64
	seconds int
	procs   int
}

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "how long one pass over one workload measures")
	trace := flag.String("trace", "both", "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics), both")
	out := flag.String("out", "benchmark/out/report.json", "where the report is written; traces go beside it")
	compare := flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		worse, err := compareReports(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		os.Exit(2)
	}
	run := specs
	if *workload != "all" {
		sp, ok := specByName(*workload)
		if !ok {
			fatal(2, "unknown workload ", *workload)
		}
		run = []spec{sp}
	}

	// Pin the environment: GOMAXPROCS is min(available, 4) whatever the
	// host offers (a GOMAXPROCS variable below that is honoured), and
	// workers = GOMAXPROCS with the main thread counted, so nothing is
	// oversubscribed.  No machine profile is ever loaded.
	cfg := config{seed: *seed, seconds: *seconds, procs: min(runtime.GOMAXPROCS(0), maxProcs)}
	runtime.GOMAXPROCS(cfg.procs)

	rep := report{Host: stampHost(cfg.procs), Seed: cfg.seed, Seconds: cfg.seconds}
	fmt.Printf("host: %d cpu, gomaxprocs %d, %s, avx2 %v, provider %s %+v, commit %s\n",
		rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.AVX2,
		rep.Host.Provider, rep.Host.Engine, rep.Host.Commit)
	if cfg.procs == 1 {
		fmt.Println("note: one processor; apps.speedup_vs_seq and apps.efficiency are not measured (reported as 0)")
	}

	start := processStart
	for _, sp := range run {
		if *trace != "1" {
			r, err := measureEndToEnd(sp, cfg, start)
			if err != nil {
				fatal(1, err)
			}
			printWorkload(r, "untraced")
			rep.EndToEnd = append(rep.EndToEnd, r)
		}
		if *trace != "0" {
			r, tr, err := measureLayersOf(sp, cfg)
			if err != nil {
				fatal(1, err)
			}
			printWorkload(r, "traced")
			rep.PerLayer = append(rep.PerLayer, r)
			// The spans leave memory only now, after the pass.
			path := filepath.Join(filepath.Dir(*out), "trace-"+sp.name+".json")
			if err := writeJSON(path, tr.file(sp.name, cfg.seed)); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: trace not written:", err)
			}
		}
		start = time.Now()
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: report not written:", err)
	}

	res := result(rep, len(run) > 1)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(code int, v ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"benchmark:"}, v...)...)
	os.Exit(code)
}

func printWorkload(r workloadReport, pass string) {
	fmt.Printf("%s (%s pass): ops %d, ops_failed %d\n", r.Name, pass, r.Ops, r.OpsFailed)
	for _, group := range []map[string]metric{r.Metrics, r.Info} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			fmt.Printf("  %-28s %14.6g %s", name, m.Value, m.Unit)
			if s := m.Samples; s != nil {
				fmt.Printf("  (median of %d, q1 %.6g, q3 %.6g, p%g %.6g)", s.N, s.Q1, s.Q3, s.HiPct, s.Hi)
			}
			fmt.Println()
		}
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result folds a report into the result line.  With several workloads in
// one run the metric names carry the workload as a prefix.
func result(rep report, prefix bool) resultLine {
	res := resultLine{Metrics: map[string]resultValue{}}
	for _, group := range [][]workloadReport{rep.EndToEnd, rep.PerLayer} {
		for _, r := range group {
			res.Attempted += r.Ops
			res.Failed += r.OpsFailed
			for name, m := range r.Metrics {
				if prefix {
					name = r.Name + "/" + name
				}
				res.Metrics[name] = resultValue{m.Value, m.Unit}
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}
