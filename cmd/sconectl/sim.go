package main

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
)

// cmdSim runs the gate-level fault-simulation campaigns of the paper's
// evaluation (Section IV-A) locally: the SIFA bias experiment of Figure 4,
// the identical-fault DFA experiment of Figure 5, and the coverage sweeps
// over fault models and locations. Campaigns run at the engine default
// parallelism; results are identical at every GOMAXPROCS.
//
// With -json, results are emitted through the same encoder and
// campaign-result schema the sconed service uses, so local output and
// service API responses diff cleanly against each other.
func cmdSim(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "fig4", "experiment to run: fig4, fig5, sweep, coverage, twofaults, leakage, persistent")
	runs := fs.Int("runs", 80000, "simulated encryptions per design (per location for coverage)")
	seed := fs.Uint64("seed", 0x5C09E2021, "campaign seed")
	design := registerDesign(fs)
	sites := fs.Int("sites", 400, "coverage: number of sampled fault locations (0 = all)")
	jsonOut := fs.Bool("json", false, "emit results as JSON in the sconed service schema")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs <= 0 {
		return fmt.Errorf("-runs must be positive (got %d)", *runs)
	}
	// The design flags share the service vocabulary; reject bad values
	// before any campaign starts.
	_, opts, err := design.parse()
	if err != nil {
		return err
	}
	// The figure experiments compare fixed design pairs from the paper;
	// only the coverage sweep honours -scheme, and none retarget -spec.
	if design.spec != defaultSpec {
		return fmt.Errorf("sim experiments are defined on %s; -spec is fixed", defaultSpec)
	}
	if *exp != "coverage" && !design.isDefault() {
		return fmt.Errorf("experiment %q pins its designs; -scheme/-entropy/-engine only apply to -experiment coverage", *exp)
	}

	cfg := experiments.DefaultConfig()
	cfg.Runs = *runs
	cfg.Seed = *seed

	start := time.Now()
	var result any
	switch *exp {
	case "fig4":
		result, err = experiments.RunFig4(cfg)
	case "fig5":
		result, err = experiments.RunFig5(cfg)
	case "sweep":
		result, err = experiments.RunSweep(cfg)
	case "persistent":
		result, err = experiments.RunPersistent(cfg)
	case "twofaults":
		result, err = experiments.RunTwoBiasedFaults(cfg)
	case "leakage":
		// Each test collects 2·runs traces with a random class per trace,
		// so about -runs per class (2048 when -runs is left at 80000).
		if cfg.Runs == 80000 {
			cfg.Runs = 2048
		}
		result, err = experiments.RunLeakage(cfg)
	case "coverage":
		// Whole-design location sweep; runs-per-location comes from
		// -runs (use a small value, e.g. 128).
		if opts.Scheme == core.SchemeUnprotected {
			return fmt.Errorf("coverage needs a duplication scheme (naive, acisp or three-in-one)")
		}
		result, err = experiments.RunLocationCoverage(cfg, opts.Scheme, *sites)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		return service.WriteJSON(stdout, jsonDocument(*exp, cfg, result))
	}
	fmt.Fprintln(stdout, result)
	fmt.Fprintf(stdout, "\n(%d runs per design, seed %#x, %s)\n", cfg.Runs, cfg.Seed, time.Since(start).Round(time.Millisecond))
	return nil
}

// jsonDocument wraps an experiment result in the service schema: campaign
// tallies become service.CampaignResult (the exact shape sconed returns for
// campaign jobs) and seeds use the service's hex-string uint64 encoding.
// Experiments without embedded campaigns pass their result through as-is.
func jsonDocument(exp string, cfg experiments.Config, result any) map[string]any {
	doc := map[string]any{
		"experiment": exp,
		"runs":       cfg.Runs,
		"seed":       service.U64(cfg.Seed),
	}
	switch r := result.(type) {
	case experiments.Fig4Result:
		doc["panels"] = []map[string]any{fig4Panel(r.Naive), fig4Panel(r.ThreeInOne)}
	case experiments.Fig5Result:
		doc["panels"] = []map[string]any{fig5Panel(r.Naive), fig5Panel(r.ThreeInOne)}
	case experiments.SweepResult:
		rows := make([]map[string]any, 0, len(r.Rows))
		for _, row := range r.Rows {
			rows = append(rows, map[string]any{
				"scheme":   row.Scheme.String(),
				"model":    row.Model.String(),
				"both":     row.Both,
				"campaign": service.NewCampaignResult(row.Campaign),
				"escaped":  row.Escaped(),
			})
		}
		doc["rows"] = rows
	default:
		doc["result"] = result
	}
	return doc
}

func fig4Panel(p experiments.Fig4Panel) map[string]any {
	return map[string]any{
		"design":        p.Design,
		"campaign":      service.NewCampaignResult(p.Campaign),
		"histogram":     p.Histogram.Counts,
		"sei":           p.Histogram.SEI(),
		"sei_threshold": p.SEIThreshold,
		"empty_bins":    p.Histogram.EmptyBins(),
		"biased":        p.Biased,
	}
}

func fig5Panel(p experiments.Fig5Panel) map[string]any {
	return map[string]any{
		"design":      p.Design,
		"campaign":    service.NewCampaignResult(p.Campaign),
		"released":    p.Released.Counts,
		"ineffective": p.Ineffective.Counts,
	}
}
