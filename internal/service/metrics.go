package service

import (
	"io"

	"repro/internal/obs"
)

// Metrics is the service's instrument set, registered on an obs.Registry
// (the one from Config.Obs, or a private per-Service registry so tests can
// run many instances in one process without name collisions). The legacy
// short snapshot keys (jobs_submitted_total, queue_depth, ...) are preserved
// by Snapshot for the JSON /metrics view and existing clients; the registry
// additionally exposes everything — including the latency histograms — in
// Prometheus text form.
type Metrics struct {
	reg *obs.Registry

	JobsSubmitted     *obs.Counter
	JobsCompleted     *obs.Counter
	JobsFailed        *obs.Counter
	JobsCanceled      *obs.Counter
	JobsResumed       *obs.Counter
	Checkpoints       *obs.Counter
	JobRecordsSkipped *obs.Counter // undecodable or misfit records at startup
	RunsSimulated     *obs.Counter
	// RunsReplayed counts campaign runs whose batch results came from the
	// result store; RunsSimulated counts only freshly simulated runs, so
	// the two partition a job's progress by where the work happened.
	RunsReplayed  *obs.Counter
	StreamClients *obs.Gauge
	JobsRunning   *obs.Gauge
	QueueDepth    *obs.Gauge

	// JobWaitNS measures submission-to-start queueing latency, JobRunNS the
	// start-to-terminal execution time, CheckpointNS one job-record append
	// (encode and write) to the state log.
	JobWaitNS    *obs.Histogram
	JobRunNS     *obs.Histogram
	CheckpointNS *obs.Histogram

	// Fleet instruments. The counters count remote workers' leases only,
	// so they stay zero on a single-node service; LeasesActive gauges the
	// whole lease table, in-process claims included. LeasesReassigned
	// counts grants of a batch range that had been granted before — the
	// worker-death / lease-expiry / worker-error recovery path.
	WorkersJoined    *obs.Counter
	Heartbeats       *obs.Counter
	LeasesGranted    *obs.Counter
	LeasesCompleted  *obs.Counter
	LeasesExpired    *obs.Counter
	LeasesReassigned *obs.Counter
	Workers          *obs.Gauge
	LeasesActive     *obs.Gauge
}

// newMetrics registers the service instruments on reg; queueLen samples the
// job queue's backlog and c, the lease table, the worker and lease gauges.
func newMetrics(reg *obs.Registry, queueLen func() int, c *coordinator) *Metrics {
	m := &Metrics{
		reg:           reg,
		JobsSubmitted: reg.NewCounter("scone_service_jobs_submitted_total", "Jobs accepted by Submit"),
		JobsCompleted: reg.NewCounter("scone_service_jobs_completed_total", "Jobs finished in StateDone"),
		JobsFailed:    reg.NewCounter("scone_service_jobs_failed_total", "Jobs finished in StateFailed"),
		JobsCanceled:  reg.NewCounter("scone_service_jobs_canceled_total", "Jobs finished in StateCanceled"),
		JobsResumed:   reg.NewCounter("scone_service_jobs_resumed_total", "Campaign executions resumed from a checkpoint"),
		Checkpoints:   reg.NewCounter("scone_service_checkpoints_total", "Campaign checkpoints persisted"),
		JobRecordsSkipped: reg.NewCounter("scone_service_job_records_skipped_total",
			"Job records skipped at startup because they did not decode or fit their job"),
		RunsSimulated: reg.NewCounter("scone_service_runs_simulated_total", "Campaign runs simulated across all jobs"),
		RunsReplayed:  reg.NewCounter("scone_service_runs_replayed_total", "Campaign runs served from the result store across all jobs"),
		StreamClients: reg.NewGauge("scone_service_stream_clients_count", "Connected NDJSON stream consumers"),
		JobsRunning:   reg.NewGauge("scone_service_jobs_running_count", "Jobs currently executing"),
		QueueDepth: reg.NewGaugeFunc("scone_service_queue_depth_count", "Queued-but-not-started jobs",
			func() int64 { return int64(queueLen()) }),
		JobWaitNS:    reg.NewHistogram("scone_service_job_wait_ns", "Queueing latency from Submit to job start", obs.LatencyBuckets()),
		JobRunNS:     reg.NewHistogram("scone_service_job_run_ns", "Execution time from job start to terminal state", obs.LatencyBuckets()),
		CheckpointNS: reg.NewHistogram("scone_service_checkpoint_ns", "Job-record append time", obs.ExpBuckets(16_000, 4, 12)),

		WorkersJoined:    reg.NewCounter("scone_service_workers_joined_total", "Workers registered via /v1/workers/join"),
		Heartbeats:       reg.NewCounter("scone_service_heartbeats_total", "Worker heartbeats received"),
		LeasesGranted:    reg.NewCounter("scone_service_leases_granted_total", "Batch-range leases granted to workers"),
		LeasesCompleted:  reg.NewCounter("scone_service_leases_completed_total", "Leases completed and merged"),
		LeasesExpired:    reg.NewCounter("scone_service_leases_expired_total", "Leases expired by the TTL janitor"),
		LeasesReassigned: reg.NewCounter("scone_service_leases_reassigned_total", "Re-grants of previously granted batch ranges"),
		Workers: reg.NewGaugeFunc("scone_service_workers_count", "Registered workers in the active state",
			c.workerCount),
		LeasesActive: reg.NewGaugeFunc("scone_service_leases_active_count", "Leases currently granted to a worker or claimed in-process",
			c.activeLeaseCount),
	}
	return m
}

// WritePrometheus renders every registered instrument in Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error { return m.reg.WritePrometheus(w) }

// Snapshot returns the current values under the service's legacy short keys
// (the JSON /metrics contract from before the obs migration).
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"jobs_submitted_total": m.JobsSubmitted.Value(),
		"jobs_completed_total": m.JobsCompleted.Value(),
		"jobs_failed_total":    m.JobsFailed.Value(),
		"jobs_canceled_total":  m.JobsCanceled.Value(),
		"jobs_resumed_total":   m.JobsResumed.Value(),
		"checkpoints_total":    m.Checkpoints.Value(),
		"runs_simulated_total": m.RunsSimulated.Value(),
		"runs_replayed_total":  m.RunsReplayed.Value(),
		"stream_clients":       m.StreamClients.Value(),
		"jobs_running":         m.JobsRunning.Value(),
		"queue_depth":          m.QueueDepth.Value(),

		"workers":                 m.Workers.Value(),
		"workers_joined_total":    m.WorkersJoined.Value(),
		"heartbeats_total":        m.Heartbeats.Value(),
		"leases_active":           m.LeasesActive.Value(),
		"leases_granted_total":    m.LeasesGranted.Value(),
		"leases_completed_total":  m.LeasesCompleted.Value(),
		"leases_expired_total":    m.LeasesExpired.Value(),
		"leases_reassigned_total": m.LeasesReassigned.Value(),
	}
}
