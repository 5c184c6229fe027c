package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/rng"
	"repro/internal/sim"
)

// cmdTrace dumps a value-change-dump (VCD) waveform of one gate-level
// encryption of the selected design — optionally with a fault injected —
// for inspection in GTKWave. It records every port bit plus the targeted
// S-box input bus on stdout and prints the ciphertext summary on stderr.
func cmdTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := registerDesign(fs)
	doFault := fs.Bool("fault", false, "inject a stuck-at-0 during the last round")
	sbox := fs.Int("sbox", 13, "targeted S-box index")
	bit := fs.Int("bit", 2, "targeted S-box input bit")
	pt := fs.Uint64("pt", 0xCAFEBABE12345678, "plaintext")
	seed := fs.Uint64("seed", 2021, "device randomness seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	d, err := design.build()
	if err != nil {
		return err
	}
	r, err := core.NewRunner(d)
	if err != nil {
		return err
	}

	// Observe every port bit plus the targeted S-box input bus.
	var nets []netlist.Net
	for i := range d.Mod.Inputs {
		nets = append(nets, d.Mod.Inputs[i].Bits...)
	}
	for i := range d.Mod.Outputs {
		nets = append(nets, d.Mod.Outputs[i].Bits...)
	}
	nets = append(nets, d.SboxInputBus(core.BranchActual, *sbox)...)
	rec := sim.NewVCDRecorder(r.S, stdout, 0, nets)
	r.CycleHook = func(int) { _ = rec.Sample() }

	if *doFault {
		r.S.SetInjector(fault.NewInjector(fault.At(
			d.SboxInputNet(core.BranchActual, *sbox, *bit),
			fault.StuckAt0, d.LastRoundCycle())))
	}

	gen := rng.NewXoshiro(*seed)
	var lf core.LambdaFunc
	if d.LambdaWidth > 0 {
		if d.Opts.Entropy == core.EntropyPrime {
			lf = core.LambdaConst([]uint64{gen.Bits(d.LambdaWidth)})
		} else {
			// A fresh λ every cycle, as the fault engine draws it; the
			// runner asks once per cycle.
			lf = func(int) []uint64 { return []uint64{gen.Bits(d.LambdaWidth)} }
		}
	}
	res := r.EncryptBatch([]uint64{*pt}, deviceKey, []uint64{gen.Uint64()}, lf)
	if err := rec.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "ct=%016X fault=%v (%d cycles dumped)\n",
		res.CT[0], res.Fault[0], d.CyclesPerRun())
	return nil
}
