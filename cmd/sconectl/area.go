package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/synth"
)

// cmdArea regenerates the area tables of the paper's evaluation: Table II
// (full PRESENT-80 cores) and Table III (duplicated S-box layers), plus the
// entropy-variant and synthesis-engine ablations.
func cmdArea(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl area", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "which table to print: 2, 3 or all")
	engine := fs.String("engine", "anf", "S-box synthesis engine for Table II: anf or bdd")
	ablations := fs.Bool("ablations", false, "also print the entropy-variant and engine ablations")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var eng synth.Engine
	switch *engine {
	case "anf":
		eng = synth.EngineANF
	case "bdd":
		eng = synth.EngineBDD
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}

	switch *table {
	case "2", "3", "all":
	default:
		return fmt.Errorf("unknown table %q", *table)
	}
	if *table == "2" || *table == "all" {
		fmt.Fprintln(stdout, experiments.RunTableII(eng))
	}
	if *table == "3" || *table == "all" {
		fmt.Fprintln(stdout, experiments.RunTableIII())
	}
	if *ablations {
		fmt.Fprintln(stdout, experiments.RunEntropyAblation())
		fmt.Fprintln(stdout, experiments.RunEngineAblation())
	}
	return nil
}
