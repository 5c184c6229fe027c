package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/service"
	"repro/internal/stdcell"
)

// cmdNetlist builds one protected core and inspects it: cell statistics,
// GE area, logic depth, and optional export in the scone netlist text
// format or Graphviz DOT.
func cmdNetlist(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl netlist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := registerDesign(fs)
	optimize := fs.Bool("optimize", false, "run the synthesis optimiser")
	separate := fs.Bool("separate-sbox", false, "use the ACISP separate-S-box layout")
	format := fs.String("format", "stats", "output: stats, text or dot")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ds := design.designSpec()
	ds.Optimize, ds.SeparateSbox = *optimize, *separate
	d, err := service.BuildDesign(ds)
	if err != nil {
		return err
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
