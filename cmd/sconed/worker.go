package main

// Worker mode: `sconed -worker -join <coordinator-url>` turns this binary
// into a lease-pulling campaign worker. It serves no HTTP itself — the
// coordinator owns the API surface — and is safe to run in any number
// next to one coordinator: the lease protocol's determinism makes workers
// interchangeable and expendable.

import (
	"context"
	"fmt"
	"io"

	"repro/internal/service"
	"repro/internal/service/client"
)

// runWorker joins the coordinator cfg names and executes leases until ctx
// is cancelled (SIGTERM/SIGINT), then stops gracefully: the current lease
// is failed back for immediate reassignment and the worker leaves the
// registry.
func runWorker(ctx context.Context, cfg client.WorkerConfig, stdout io.Writer) error {
	cfg.OnLease = func(g service.LeaseGrant) {
		fmt.Fprintf(stdout, "sconed: lease %s job %s batches [%d,%d)\n",
			g.LeaseID, g.JobID, g.FirstBatch, g.LastBatch)
	}
	w := client.NewWorker(cfg)
	fmt.Fprintf(stdout, "sconed: worker joining %s\n", cfg.Coordinator)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Fprintln(stdout, "sconed: worker stopped")
	return nil
}
