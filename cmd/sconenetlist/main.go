// Command sconenetlist builds one protected core and inspects it: cell
// statistics, GE area, logic depth, and optional export in the scone
// netlist text format or Graphviz DOT.
//
// Usage:
//
//	sconenetlist -cipher present80 -scheme three-in-one -entropy prime [-engine anf|bdd]
//	             [-optimize] [-separate-sbox] [-format stats|text|dot]
//
// The design flags are the shared surface of every scone CLI
// (internal/cliflags).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/stdcell"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "sconenetlist:", err)
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconenetlist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := cliflags.RegisterDesign(fs)
	optimize := fs.Bool("optimize", false, "run the synthesis optimiser")
	separate := fs.Bool("separate-sbox", false, "use the ACISP separate-S-box layout")
	format := fs.String("format", "stats", "output: stats, text or dot")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, opts, err := design.Parse()
	if err != nil {
		return err
	}
	opts.Optimize, opts.SeparateSbox = *optimize, *separate
	d, err := core.Build(spec, opts)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}

	switch *format {
	case "stats":
		fmt.Fprint(stdout, d.Mod.CollectStats())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stdcell.Nangate45().Area(d.Mod))
	case "text":
		if err := d.Mod.WriteText(stdout); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	case "dot":
		if err := d.Mod.WriteDOT(stdout); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}
