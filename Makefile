# Development targets; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go

.PHONY: all build test race coverage bench bench-test bench-full bench-smoke fmt fmt-check vet lint audit fuzz serve e2e e2e-dist e2e-store e2e-prove e2e-multifault e2e-leakage ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage gate, a ratchet against silent erosion: total statement coverage
# must stay at or above the recorded baseline (.github/coverage-baseline.txt).
# Raise the baseline when coverage genuinely improves.
coverage:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	baseline=$$(cat .github/coverage-baseline.txt); \
	echo "total coverage $${total}% (baseline $${baseline}%)"; \
	awk -v t="$$total" -v b="$$baseline" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || { \
		echo "coverage $${total}% fell below the recorded baseline $${baseline}%" >&2; exit 1; }

# The repository's benchmark (sconeperf/, declared by BENCHMARK.json) at
# smoke-test size: every workload for about a second, every output
# checked, one JSON result line. sconeperf/README.md covers full-length
# runs, traced runs and comparing two commits.
bench:
	bash sconeperf/run.sh --short

# The benchmark's own tests. sconeperf is a nested module that the root
# `go test ./...` skips; its tests run every workload once end to end and
# once traced (about a minute), including the W=2/W=4 lane-width replays.
bench-test:
	$(GO) -C sconeperf vet .
	$(GO) -C sconeperf test .

# Full go-test benchmark run (slow; one benchmark per paper table/figure
# plus the raw gate-eval throughput benchmarks).
bench-full:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# One iteration of every benchmark — proves they still compile and run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# Custom vet passes (internal/vetkit): norand, cachedcompile, ctxexecute,
# enginecfg, obsnames, provebudget.
lint: vet
	$(GO) run ./cmd/sconevet .

# Run the fault-campaign daemon locally with durable state. Submit work
# with cmd/sconectl or plain curl; SIGINT drains gracefully (running
# campaigns checkpoint and resume on the next start).
SCONED_STATE ?= .sconed-state
serve:
	$(GO) run ./cmd/sconed -addr :8344 -state $(SCONED_STATE)

# Service end-to-end suite under the race detector: HTTP submission,
# NDJSON streaming, bit-identical results vs direct Campaign.Execute,
# and graceful-drain + checkpoint/resume.
e2e:
	$(GO) test -race -count=1 ./internal/service/... ./cmd/sconed/... ./cmd/sconectl/...

# Distributed campaign fabric under the race detector: coordinator lease
# table, the per-batch completion check (seed corpus), worker kill + lease
# reassignment with bit-identical merged results, the /v1 worker protocol
# round trip, sconed's worker mode, and the design caches that concurrent
# jobs and leases share.
e2e-dist:
	$(GO) test -race -count=1 \
		-run 'TestCoordinator|FuzzCheckCompletion|TestE2EDistributed|TestDistEndpoints|TestSubmitRetr|TestDaemonWorker|TestWorkersLeasesAndTopFleet|TestDesignCache' \
		./internal/service/... ./cmd/sconed/... ./cmd/sconectl/...

# Content-addressed result store under the race detector: resubmitting an
# identical campaign after a daemon restart must simulate zero batches
# (every batch a scone_store_hits_total hit) with bit-identical results for
# all three entropy variants, extended campaigns must splice cached and
# fresh batches bit-identically, and the distributed coordinator must grant
# no leases for fully cached work. The same log holds the job records: a
# log cut at every offset of a job's last commit must resume bit-identically,
# a broken legacy record must be skipped rather than stop startup, no job
# record may grow with its job, a restart must keep every finished status,
# and any bytes as the state log must open (seed corpus).
e2e-store:
	$(GO) test -race -count=1 -run 'TestE2EStore|TestStore|TestJobLog|TestRestartKeepsJobStatus|FuzzCampaignKey|FuzzBatchRecord|FuzzLogRecovery|FuzzStateDirRecovery' \
		./internal/service/... ./internal/store/...

# Formal prover under the race detector: every single-fault location of
# the protected PRESENT-80 core proves flag/key-independent, seeded bias
# fixtures produce dependent verdicts with witnesses, and a daemon drained
# mid-proof resumes on restart without re-proving a completed
# (location, model) pair — measured through scone_prove_locations_total.
e2e-prove:
	$(GO) test -race -count=1 \
		-run 'TestE2EProve|TestProve|TestProtectedPresent80Independent' \
		./internal/service/... ./internal/prove/... ./cmd/sconectl/...

# Multi-fault planning subsystem under the race detector: the multifault
# job kind must produce bit-identical sweep results in-process, through
# the distributed lease fabric and replayed from the result store (both
# kfault and persistent modes), and a daemon drained mid-sweep must
# resume at the recorded placement index with a stitched result equal to
# an uninterrupted run.
e2e-multifault:
	$(GO) test -race -count=1 \
		-run 'TestE2EMultiFault|TestSites|TestCombinations|TestNumTuples|TestNewFiltersAndPlans|TestConeRestriction|TestPruneIndex|TestPersistentPlan|TestPlanMetrics|FuzzCombinationsPruned' \
		./internal/service/... ./internal/plan/...

# Leakage evaluation under the race detector: the TVLA evaluator's
# determinism and resume bit-identity, the masked-vs-unmasked verdict
# separation, and a daemon drained mid-evaluation must resume on restart
# completing exactly the remaining trace batches — measured through
# scone_leakage_batches_total — with t-statistics bit-identical to an
# uninterrupted run. The power probe's column counter must match the
# per-set-bit reference loop and its pinned trace digest, allocate
# nothing once warm, and reproduce EXPERIMENTS.md's leakage tables; a
# leakage request over the pair cap is a 400.
e2e-leakage:
	$(GO) test -race -count=1 \
		-run 'TestE2ELeakage|TestLeakage|TestFacadeLeakage|TestTTest|TestProbe|TestEngineProbeWidthParity|FuzzColumnCount|TestSubmitRejectsLeakagePairsOverTheCap' \
		./internal/service/... ./internal/leakage/... ./internal/stats/... ./internal/power/... .

# Static countermeasure audit (`sconectl lint`) on every cipher: the
# synthesised three-in-one and correcting cores must lint clean for every
# entropy variant, and the weak schemes must be flagged by the rule that
# encodes what they lack — the unprotected core by lambda-cone, the ACISP
# core (one λ shared by both branches) by dual-branch. A flagged core must
# exit 1 with an error[<rule>] finding, so a build failure or a mistyped
# flag cannot pass for one.
audit:
	@for spec in present80 gift64 scone64; do \
		for scheme in three-in-one correct; do \
			for entropy in prime per-round per-sbox; do \
				$(GO) run ./cmd/sconectl lint -summary -spec $$spec -scheme $$scheme -entropy $$entropy || exit 1; \
			done; \
		done; \
		for weak in unprotected:lambda-cone acisp:dual-branch; do \
			scheme=$${weak%%:*}; rule=$${weak#*:}; \
			out=$$($(GO) run ./cmd/sconectl lint -rules $$rule -spec $$spec -scheme $$scheme 2>&1); rc=$$?; \
			if [ $$rc -ne 1 ] || ! printf '%s\n' "$$out" | grep -q "error\[$$rule\]"; then \
				printf '%s\n' "$$out" >&2; \
				echo "audit: the $$scheme $$spec core was not flagged by $$rule (exit $$rc)" >&2; exit 1; \
			fi; \
			echo "$$scheme $$spec core correctly flagged by $$rule"; \
		done; \
	done

# Replay the checked-in fuzz seed corpora (no open-ended fuzzing).
fuzz:
	$(GO) test -run=Fuzz ./internal/netlist ./internal/lint ./internal/store ./internal/prove ./internal/plan ./internal/service ./internal/power

ci: fmt-check build lint test race coverage bench-smoke bench-test fuzz audit
