// Command sconevet runs the repository's custom vet passes (built on
// internal/vetkit, standard library only):
//
//	norand         forbid math/rand outside _test.go and internal/rng
//	cachedcompile  forbid direct sim.Compile outside internal/sim
//	ctxexecute     forbid context-free .Execute( in internal/service and
//	               cmd/sconed (use ExecuteBatchesFunc)
//	enginecfg      forbid direct engine construction (sim.NewEngine,
//	               core.NewWideRunnerFrom) outside internal/sim,
//	               internal/core and internal/fault (configure
//	               fault.EngineConfig)
//	obsnames       enforce scone_<pkg>_<metric>_<unit> metric names at obs
//	               registration sites
//	provebudget    forbid bare bdd.New in internal/lint and internal/prove
//	               (use bdd.NewWithBudget + bdd.Guarded)
//
// Usage:
//
//	sconevet [-list] [module-root]
//
// Exit status: 0 clean, 1 findings, 2 usage or parse error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/vetkit"
)

var errFindings = errors.New("findings reported")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errFindings):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "sconevet:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: sconevet [flags] [module-root]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, a := range vetkit.Analyzers() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	root := "."
	switch fs.NArg() {
	case 0:
	case 1:
		root = fs.Arg(0)
	default:
		return fmt.Errorf("at most one module root, got %d args", fs.NArg())
	}

	diags, err := vetkit.Run(root, vetkit.Analyzers())
	if err != nil {
		return err
	}
	for i := range diags {
		fmt.Fprintln(stdout, diags[i].String())
	}
	if len(diags) > 0 {
		return errFindings
	}
	return nil
}
