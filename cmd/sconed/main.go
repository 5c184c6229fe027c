// Command sconed serves the scone engine as a fault-campaign daemon: an
// HTTP/JSON API over internal/service with a bounded FIFO job queue, a
// worker pool, NDJSON progress streaming and durable campaign checkpoints.
//
// Usage:
//
//	sconed [-addr :8344] [-state DIR] [-workers N] [-queue N]
//	       [-checkpoint-runs N] [-sim-workers N] [-pprof]
//	       [-dist] [-lease-batches N] [-lease-ttl D] [-lease-attempts N]
//	sconed -worker -join URL [-name NAME] [-sim-workers N]
//
// Every campaign runs as batch-range leases from the daemon's lease table.
// Without -dist the job's own goroutine claims and runs them, one
// -checkpoint-runs chunk each. With -dist the daemon is a coordinator: it
// never simulates, and worker processes pull the leases, execute them and
// report back over /v1. An idle worker's acquire waits on the coordinator
// until a lease exists, so an idle fleet starts a job at once. Expired or
// failed leases are reassigned with jittered backoff and the merged result
// is bit-identical to a single-node run. With -worker the process runs no
// HTTP API of its own — it joins the coordinator at -join, heartbeats, and
// executes leases until signalled.
//
// On SIGTERM/SIGINT the daemon drains gracefully: intake stops, running
// campaigns checkpoint and return to the queue, and a restart on the same
// -state directory resumes them with bit-identical final results. A
// signalled worker fails its current lease back to the coordinator for
// immediate reassignment and leaves the registry.
//
// GET /v1/metrics serves the full observability registry — service,
// simulator, fault-campaign and prover families — in Prometheus text format
// (the JSON snapshot with Accept: application/json). With -pprof the Go
// runtime profiles are exposed under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/leakage"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/prove"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "sconed:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (signal) or the
// listener fails. It prints the bound address, so callers (and tests) can
// use -addr with port 0.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sconed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8344", "listen address")
	state := fs.String("state", "", "state directory for the state log: job records, checkpoints and stored results (empty: in-memory only)")
	workers := fs.Int("workers", 2, "worker goroutines serving the job queue (jobs running concurrently)")
	queueDepth := fs.Int("queue", 64, "queued-but-not-started job capacity")
	ckptRuns := fs.Int("checkpoint-runs", 4096, "campaign checkpoint interval in simulated runs")
	simWorkers := fs.Int("sim-workers", 0, "goroutines per campaign simulation (0 = GOMAXPROCS)")
	drainWait := fs.Duration("drain-timeout", 30*time.Second, "how long to wait for running jobs to checkpoint on shutdown")
	pprofOn := fs.Bool("pprof", false, "expose Go runtime profiles under /debug/pprof/")
	dist := fs.Bool("dist", false, "coordinator mode: distribute campaign jobs to sconed workers as batch-range leases")
	leaseBatches := fs.Int("lease-batches", 8, "batches per lease in coordinator mode")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second, "lease heartbeat TTL in coordinator mode")
	leaseAttempts := fs.Int("lease-attempts", 8, "grant attempts per batch range before the job fails")
	workerMode := fs.Bool("worker", false, "worker mode: pull and execute leases from a coordinator instead of serving HTTP")
	join := fs.String("join", "", "coordinator base URL to join in worker mode (e.g. http://127.0.0.1:8344)")
	name := fs.String("name", "", "worker name shown in /v1/workers listings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *workerMode {
		if *join == "" {
			return fmt.Errorf("-worker needs -join <coordinator-url>")
		}
		return runWorker(ctx, client.WorkerConfig{Coordinator: *join, Name: *name, SimWorkers: *simWorkers}, stdout)
	}
	if *join != "" {
		return fmt.Errorf("-join requires -worker")
	}

	// One registry for the whole process: the service registers its own
	// families on it, and the simulator and fault packages hook their
	// package-level instruments in so /metrics shows every layer at once.
	reg := obs.NewRegistry()
	sim.EnableObservability(reg)
	fault.EnableObservability(reg)
	prove.EnableObservability(reg)
	plan.EnableObservability(reg)
	leakage.EnableObservability(reg)

	svc, err := service.New(service.Config{
		Workers:             *workers,
		QueueDepth:          *queueDepth,
		StateDir:            *state,
		CheckpointEveryRuns: *ckptRuns,
		SimWorkers:          *simWorkers,
		Obs:                 reg,
		Dist: service.DistConfig{
			Enabled:      *dist,
			LeaseBatches: *leaseBatches,
			LeaseTTL:     *leaseTTL,
			MaxAttempts:  *leaseAttempts,
		},
	})
	if err != nil {
		return err
	}
	if dropped, skipped := svc.Recovered(); dropped > 0 || skipped > 0 {
		fmt.Fprintf(stdout, "sconed: state dir recovered: dropped %d corrupt log bytes, skipped %d job records\n", dropped, skipped)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "sconed: listening on %s\n", ln.Addr())

	handler := svc.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}

	srv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "sconed: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	drainErr := svc.Drain(drainCtx)
	shutErr := srv.Shutdown(drainCtx)
	if drainErr != nil {
		return drainErr
	}
	if shutErr != nil && shutErr != http.ErrServerClosed {
		return shutErr
	}
	fmt.Fprintln(stdout, "sconed: stopped")
	return nil
}
