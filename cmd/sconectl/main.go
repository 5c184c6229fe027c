// Command sconectl is the scone command line: the client for a running
// sconed daemon, and the local tools that synthesise, simulate, attack and
// audit the paper's designs in-process.
//
// Daemon commands:
//
//	sconectl [-server URL] submit -kind campaign -cipher present80 \
//	         -scheme three-in-one -entropy prime -runs 80000 \
//	         -seed 0x5C09E2021 -key 0x0123456789ABCDEF,0x8421 \
//	         -sbox 13 -bit 2 [-stream]
//	sconectl [-server URL] submit -kind lint -netlist core.nl
//	sconectl [-server URL] submit -kind multifault -mode kfault -k 2 \
//	         -sboxes 13 -runs 4096 [-prune] [-max-tuples N] [-stream]
//	sconectl [-server URL] prove -cipher present80 -scheme three-in-one \
//	         -entropy prime [-models stuck-at-0,bit-flip] [-budget N] [-stream]
//	sconectl [-server URL] leakage -cipher present80 -scheme masked \
//	         -pairs 2048 [-power-model hd|hw] [-fixed-pt 0x...] \
//	         [-fault -sbox 13 -bit 2 -model stuck-at-0] [-stream]
//	sconectl [-server URL] get j000000
//	sconectl [-server URL] list
//	sconectl [-server URL] cancel j000000
//	sconectl [-server URL] watch j000000
//	sconectl [-server URL] results [submit flags: -runs 80000 -sbox 13 -bit 2 ...]
//	sconectl [-server URL] runs [job-id]
//	sconectl [-server URL] metrics
//	sconectl [-server URL] workers
//	sconectl [-server URL] leases
//	sconectl [-server URL] top [-interval 2s] [-iterations N]
//
// Local commands (no daemon):
//
//	sconectl plan -cipher present80 -scheme three-in-one -mode kfault \
//	         -k 2 [-sboxes 13,14] [-max-tuples N]
//	sconectl sim -experiment fig4|fig5|sweep|coverage|twofaults|leakage|persistent \
//	         [-runs 80000] [-seed N] [-sites 400] [-json]
//	sconectl area [-table 2|3|all] [-engine anf|bdd] [-ablations]
//	sconectl attack [-attack dfa|identical|sifa|ifa|fta|all] [-quick] [-json]
//	sconectl lint [-rules IDs] [-summary] [-json] [-list] [netlist.nl ...]
//	sconectl netlist [-optimize] [-separate-sbox] [-format stats|text|dot]
//	sconectl trace [-fault] [-sbox 13] [-bit 2] [-pt N] [-seed N] > run.vcd
//
// Every command that picks a design takes the one shared flag surface:
// -spec (alias -cipher), -scheme, -entropy and -engine.
//
// Daemon command output is JSON through the same encoder the daemon uses,
// so captured CLI transcripts diff cleanly against raw API responses. The
// one exception is top, which renders a human-readable status screen from
// the same metrics snapshot, job list and (on a coordinator) worker
// registry the JSON commands expose.
//
// Exit status: 0 on success, 1 on failure. lint exits 1 when it reports
// findings, with the report on stdout and nothing on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errFindings):
		os.Exit(1) // the lint report on stdout says why
	default:
		fmt.Fprintln(os.Stderr, "sconectl:", err)
		os.Exit(1)
	}
}

func usage(stderr io.Writer, fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintln(stderr, "usage: sconectl [-server URL] <submit|prove|leakage|get|list|cancel|watch|results|runs|metrics|workers|leases|top> [flags]")
		fmt.Fprintln(stderr, "       sconectl <plan|sim|area|attack|lint|netlist|trace> [flags]")
		fs.PrintDefaults()
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8344", "sconed base URL")
	fs.Usage = usage(stderr, fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	c := client.New(*server)
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(ctx, c, rest, stdout, stderr)
	case "prove", "leakage":
		return cmdSubmit(ctx, c, append([]string{"-kind", cmd}, rest...), stdout, stderr)
	case "plan":
		return cmdPlan(rest, stdout, stderr)
	case "sim":
		return cmdSim(rest, stdout, stderr)
	case "area":
		return cmdArea(rest, stdout, stderr)
	case "attack":
		return cmdAttack(rest, stdout, stderr)
	case "lint":
		return cmdLint(rest, stdout, stderr)
	case "netlist":
		return cmdNetlist(rest, stdout, stderr)
	case "trace":
		return cmdTrace(rest, stdout, stderr)
	case "get":
		return oneJobCmd(ctx, rest, stdout, c.Get)
	case "cancel":
		return oneJobCmd(ctx, rest, stdout, c.Cancel)
	case "list":
		jobs, err := c.List(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, map[string]any{"jobs": jobs})
	case "watch":
		if len(rest) != 1 {
			return fmt.Errorf("usage: sconectl watch <job-id>")
		}
		return streamJob(ctx, c, rest[0], stdout)
	case "results":
		return cmdResults(ctx, c, rest, stdout, stderr)
	case "runs":
		switch len(rest) {
		case 0:
			recs, err := c.StoredRuns(ctx)
			if err != nil {
				return err
			}
			return service.WriteJSON(stdout, map[string]any{"runs": recs})
		case 1:
			rec, err := c.StoredRun(ctx, rest[0])
			if err != nil {
				return err
			}
			return service.WriteJSON(stdout, rec)
		default:
			return fmt.Errorf("usage: sconectl runs [job-id]")
		}
	case "metrics":
		m, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, m)
	case "workers":
		ws, err := c.Workers(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, map[string]any{"workers": ws})
	case "leases":
		ls, err := c.Leases(ctx)
		if err != nil {
			return err
		}
		return service.WriteJSON(stdout, map[string]any{"leases": ls})
	case "top":
		return cmdTop(ctx, c, rest, stdout, stderr)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func oneJobCmd(ctx context.Context, args []string, stdout io.Writer, f func(context.Context, string) (service.JobStatus, error)) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job ID")
	}
	st, err := f(ctx, args[0])
	if err != nil {
		return err
	}
	return service.WriteJSON(stdout, st)
}

// streamJob follows the NDJSON feed, echoing every event line.
func streamJob(ctx context.Context, c *client.Client, id string, stdout io.Writer) error {
	final, err := c.Stream(ctx, id, func(ev service.Event) error {
		return service.WriteJSON(stdout, ev)
	})
	if err != nil {
		return err
	}
	_, outcome := client.Done(final)
	if outcome != nil {
		return fmt.Errorf("job %s: %w", id, outcome)
	}
	return nil
}

// cmdTop renders a top-style status screen: the daemon's counter snapshot
// followed by a per-job table, newest submissions last. With -interval it
// refreshes until interrupted or -iterations screens have been drawn.
func cmdTop(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	interval := fs.Duration("interval", 0, "refresh period (0 = one snapshot and exit)")
	iters := fs.Int("iterations", 0, "stop after this many screens (0 = until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	for n := 1; ; n++ {
		if err := topScreen(ctx, c, stdout); err != nil {
			return err
		}
		if *interval <= 0 || (*iters > 0 && n >= *iters) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(*interval):
		}
	}
}

func topScreen(ctx context.Context, c *client.Client, stdout io.Writer) error {
	m, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sconed %s\n", time.Now().Format(time.RFC3339))
	fmt.Fprintf(stdout, "queue %-6d running %-6d streams %-6d\n",
		m["queue_depth"], m["jobs_running"], m["stream_clients"])
	fmt.Fprintf(stdout, "submitted %-6d done %-6d failed %-6d canceled %-6d resumed %-6d\n",
		m["jobs_submitted_total"], m["jobs_completed_total"], m["jobs_failed_total"],
		m["jobs_canceled_total"], m["jobs_resumed_total"])
	fmt.Fprintf(stdout, "runs simulated %-12d checkpoints %-6d\n",
		m["runs_simulated_total"], m["checkpoints_total"])
	if workers, err := c.Workers(ctx); err == nil && len(workers) > 0 {
		fmt.Fprintf(stdout, "workers %-6d leases active %-6d granted %-6d reassigned %-6d\n\n",
			m["workers"], m["leases_active"], m["leases_granted_total"], m["leases_reassigned_total"])
		fmt.Fprintf(stdout, "%-10s %-12s %-8s %-7s %-7s %s\n", "WORKER", "NAME", "STATE", "ACTIVE", "DONE", "LAST SEEN")
		for _, w := range workers {
			name := w.Name
			if name == "" {
				name = "-"
			}
			fmt.Fprintf(stdout, "%-10s %-12s %-8s %-7d %-7d %s\n",
				w.ID, name, w.State, w.Active, w.Completed, w.LastSeen.Format(time.RFC3339))
		}
	}
	fmt.Fprintln(stdout)

	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Submitted.Before(jobs[j].Submitted) })
	fmt.Fprintf(stdout, "%-10s %-10s %-9s %s\n", "ID", "KIND", "STATE", "PROGRESS")
	for _, j := range jobs {
		progress := "-"
		if j.Progress != nil && j.Progress.Total > 0 {
			progress = fmt.Sprintf("%d/%d", j.Progress.Done, j.Progress.Total)
		}
		if j.Error != "" {
			progress = "error: " + j.Error
		}
		fmt.Fprintf(stdout, "%-10s %-10s %-9s %s\n", j.ID, j.Kind, j.State, progress)
	}
	return nil
}

// cmdResults asks the daemon's result store about the campaign submit's
// flags describe: POST /v1/results takes the POST /v1/jobs body, and not a
// single run is simulated server-side. The response reports how much of
// the campaign is cached and, when every batch is, the complete result.
func cmdResults(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl results", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parse := requestFlags(fs)
	req, err := parse(args)
	if err != nil {
		return err
	}
	view, err := c.Results(ctx, req)
	if err != nil {
		return err
	}
	return service.WriteJSON(stdout, view)
}

// cmdSubmit builds one job request from flags and submits it. Every kind
// goes through here; `sconectl prove` and `sconectl leakage` are
// `submit -kind prove` and `submit -kind leakage`. Prove jobs checkpoint
// after every (fault location, model) pair and leakage jobs after every
// trace batch, so a daemon killed mid-run resumes where it stopped — watch
// the resumed job with `sconectl watch` and the resumed counter in `get`.
func cmdSubmit(ctx context.Context, c *client.Client, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parse := requestFlags(fs)
	stream := fs.Bool("stream", false, "follow the job's NDJSON progress stream until it finishes")
	req, err := parse(args)
	if err != nil {
		return err
	}
	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	if err := service.WriteJSON(stdout, st); err != nil {
		return err
	}
	if *stream {
		return streamJob(ctx, c, st.ID, stdout)
	}
	return nil
}

// requestFlags registers the job-request flag vocabulary on fs and returns
// the parser that reads args into it and builds the JobRequest they name.
// Flags registered on fs after this call are parsed along with them.
func requestFlags(fs *flag.FlagSet) func(args []string) (service.JobRequest, error) {
	kind := fs.String("kind", "campaign", "job kind: campaign, multifault, dfa, sifa, fta, area, lint, prove, leakage")
	design := registerDesign(fs)
	netlistPath := fs.String("netlist", "", "netlist file to upload (area/lint/prove jobs)")
	runs := fs.Int("runs", 80000, "campaign: simulated encryptions")
	seed := fs.String("seed", "0x5C09E2021", "campaign/attack seed")
	key := fs.String("key", "0x0123456789ABCDEF,0x8421", "cipher key as two comma-separated 64-bit words")
	sbox := fs.Int("sbox", 13, "faulted/probed S-box index")
	bit := fs.Int("bit", 2, "faulted S-box input bit")
	model := fs.String("model", "stuck-at-0", "fault model: stuck-at-0, stuck-at-1, bit-flip")
	branch := fs.String("branch", "actual", "faulted branch: actual, redundant")
	mode := fs.String("mode", "kfault", "multifault: plan mode, kfault or persistent")
	arity := fs.Int("k", 2, "multifault kfault: simultaneous fault locations per tuple")
	sboxes := fs.String("sboxes", "", "multifault: comma-separated S-box indices (kfault: site columns; persistent: table entries)")
	prune := fs.Bool("prune", false, "multifault kfault: skip tuples containing an empirically inert site")
	maxTuples := fs.Int("max-tuples", 0, "multifault: truncate the plan after this many placements (0 = no truncation)")
	pairs := fs.Int("pairs", 2048, "leakage: fixed/random trace pairs")
	powerModel := fs.String("power-model", "hd", "leakage: power model, hd or hw")
	fixedPT := fs.String("fixed-pt", "0x0123456789ABCDEF", "leakage: the fixed class's plaintext")
	withFault := fs.Bool("fault", false, "leakage: inject the -branch/-sbox/-bit/-model fault and keep only SIFA-usable traces")
	models := fs.String("models", "", "prove: comma-separated fault models to prove (default: stuck-at-0,stuck-at-1,bit-flip)")
	budget := fs.Int("budget", 0, "prove: BDD node budget (0 = prover default, at most 2^24)")

	return func(args []string) (service.JobRequest, error) {
		if err := fs.Parse(args); err != nil {
			return service.JobRequest{}, err
		}
		if fs.NArg() != 0 {
			return service.JobRequest{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
		}
		seedV, err := service.ParseU64(*seed)
		if err != nil {
			return service.JobRequest{}, err
		}
		keyV, err := parseKey(*key)
		if err != nil {
			return service.JobRequest{}, err
		}
		req := service.JobRequest{
			Kind:   service.Kind(*kind),
			Design: design.designSpec(),
		}
		if *netlistPath != "" {
			b, err := os.ReadFile(*netlistPath)
			if err != nil {
				return req, err
			}
			req.Design = service.DesignSpec{Netlist: string(b)}
		}
		switch req.Kind {
		case service.KindCampaign:
			req.Campaign = &service.CampaignSpec{
				Runs: *runs,
				Seed: seedV,
				Key:  keyV,
				Faults: []service.FaultSpec{{
					Branch: *branch, Sbox: *sbox, Bit: *bit, Model: *model,
				}},
			}
		case service.KindMultiFault:
			idx, err := parseInts(*sboxes)
			if err != nil {
				return req, err
			}
			req.MultiFault = &service.MultiFaultSpec{
				Mode:         *mode,
				K:            *arity,
				Model:        *model,
				RunsPerTuple: *runs,
				Seed:         seedV,
				Key:          keyV,
				Sboxes:       idx,
				Prune:        *prune,
				MaxTuples:    *maxTuples,
			}
		case service.KindDFA, service.KindSIFA, service.KindFTA:
			req.Attack = &service.AttackSpec{Key: keyV, Seed: seedV, Sbox: sbox, Bit: bit, Model: ""}
		case service.KindLeakage:
			ptV, err := service.ParseU64(*fixedPT)
			if err != nil {
				return req, err
			}
			req.Leakage = &service.LeakageSpec{
				Pairs:   *pairs,
				Seed:    seedV,
				Key:     keyV,
				Model:   *powerModel,
				FixedPT: ptV,
			}
			if *withFault {
				req.Leakage.Faults = []service.FaultSpec{{
					Branch: *branch, Sbox: *sbox, Bit: *bit, Model: *model,
				}}
			}
		case service.KindProve:
			req.Prove = &service.ProveSpec{Budget: *budget}
			if *models != "" {
				for _, m := range strings.Split(*models, ",") {
					req.Prove.Models = append(req.Prove.Models, strings.TrimSpace(m))
				}
			}
		case service.KindArea, service.KindLint:
			// Design-only kinds.
		default:
			return req, fmt.Errorf("unknown job kind %q", *kind)
		}
		return req, nil
	}
}

// cmdPlan sizes a multi-fault sweep locally, without a daemon: it
// synthesises the selected design, enumerates exactly the plan the
// multifault job kind would execute and prints the sizing summary as JSON —
// the cheap way to judge C(n, k) before paying for simulation.
func cmdPlan(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconectl plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	design := registerDesign(fs)
	mode := fs.String("mode", "kfault", "plan mode: kfault, persistent")
	arity := fs.Int("k", 2, "kfault: simultaneous fault locations per tuple")
	sboxes := fs.String("sboxes", "", "comma-separated S-box indices (kfault: site columns; persistent: table entries)")
	maxTuples := fs.Int("max-tuples", 0, "truncate the plan after this many placements (0 = no truncation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	idx, err := parseInts(*sboxes)
	if err != nil {
		return err
	}
	d, err := design.build()
	if err != nil {
		return err
	}
	switch *mode {
	case "kfault":
		p, err := plan.New(d, plan.Request{K: *arity, Sboxes: idx, MaxTuples: *maxTuples})
		if err != nil {
			return err
		}
		sites := make([]string, len(p.Sites))
		for i, s := range p.Sites {
			sites[i] = s.String()
		}
		return service.WriteJSON(stdout, map[string]any{
			"mode":      "kfault",
			"k":         p.K,
			"sites":     sites,
			"planned":   len(p.Tuples),
			"truncated": p.Truncated,
			"total":     plan.NumTuples(len(p.Sites), p.K),
		})
	case "persistent":
		cs, truncated, err := plan.PersistentPlan(d.Spec.SboxBits, idx, *maxTuples)
		if err != nil {
			return err
		}
		size := 1 << d.Spec.SboxBits
		entries := len(idx)
		if entries == 0 {
			entries = size
		}
		return service.WriteJSON(stdout, map[string]any{
			"mode":      "persistent",
			"sbox_bits": d.Spec.SboxBits,
			"planned":   len(cs),
			"truncated": truncated,
			"total":     entries * (size - 1),
		})
	default:
		return fmt.Errorf("unknown plan mode %q", *mode)
	}
}

// parseInts parses a comma-separated list of decimal integers; empty means
// none. Every field must be a whole decimal integer: "13x", "1.5" and
// "0x10" are rejected, not read as a prefix.
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q in list", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseKey parses "lo,hi" 64-bit words (hex or decimal).
func parseKey(s string) ([2]service.U64, error) {
	var k [2]service.U64
	parts := strings.Split(s, ",")
	if len(parts) == 0 || len(parts) > 2 {
		return k, fmt.Errorf("key must be one or two comma-separated 64-bit words")
	}
	for i, p := range parts {
		v, err := service.ParseU64(strings.TrimSpace(p))
		if err != nil {
			return k, err
		}
		k[i] = v
	}
	return k, nil
}
