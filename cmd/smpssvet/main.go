// Command smpssvet runs the project's static-analysis suite
// (internal/lint): six analyzers encoding the runtime's concurrency,
// layout and wiring invariants — mixed atomic/plain field access,
// cache-line separation of fields with different writers, trace-event
// wiring, discarded Submit errors, chaos-site installation, and
// canonical stripe lock order.
//
// Usage mirrors smpssbench:
//
//	smpssvet -list                 # print registered analyzer names
//	smpssvet [packages]            # run every analyzer (default ./...)
//	smpssvet -run a,b [packages]   # run a selection
//
// Exit status: 0 clean, 1 findings, 2 usage/load errors.  Findings a
// human has judged acceptable are suppressed in source with
// `//lint:allow <analyzer> <reason>`; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Println(a.Name)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *run != "" {
		var err error
		analyzers, err = lint.ByName(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
