// Command divflowvet runs divflow's repo-specific static analyzers: the
// wall-clock, lock-order, emission-contract, and float-exactness invariants
// the paper reproduction depends on but generic vet/staticcheck cannot see.
//
// Run it from a module's root (the repo's, or bench/ — a module of its own):
//
//	divflowvet ./...
//
// Flags: -analyzers=a,b,c restricts the suite; -list prints it.
package main

import (
	"flag"
	"fmt"
	"os"

	"divflow/internal/analysis"
)

func main() {
	names := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divflowvet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "divflowvet:", err)
		os.Exit(2)
	}
	prog, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "divflowvet:", err)
		os.Exit(2)
	}
	diags := analysis.RunAnalyzers(prog, analyzers)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
