package service

// The result-store integration: campaign content addressing, the zero-
// simulation read surface (POST /v1/results, GET /v1/runs) and the run
// records. CampaignResult and store.Counts share their fields, so a tally
// converts between the wire and the store directly.
//
// A campaign's content address covers everything a batch outcome depends on
// except the batch index: the canonical netlist text of the built design,
// the engine version, the cipher key, the seed and the resolved fault
// points. Address equality therefore means batch-for-batch result equality
// (the determinism contract), which is what makes stored batches safe to
// splice into live executions.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
)

// isCanceled reports whether an execution error is an interruption (drain,
// user cancel, deadline) rather than a genuine failure.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunRecord is the durable provenance of one campaign submission, re-
// exported from the store so client code needs only the service wire types.
type RunRecord = store.RunRecord

// campaignAddress computes the content address of a built campaign.
// netlistDigest hashes its design's canonical text serialisation — the same
// bytes a netlist round-trip preserves — and the design cache computes it
// once per design; the resolved fault points are copied field for field,
// so two submissions address equal keys exactly when the engine would
// simulate identical batches.
func campaignAddress(netlistDigest store.Digest, camp *fault.Campaign) store.CampaignKey {
	k := store.CampaignKey{
		Netlist: netlistDigest,
		Engine:  camp.EngineID(),
		Key:     [2]uint64{camp.Key[0], camp.Key[1]},
		Seed:    camp.Seed,
		Faults:  make([]store.FaultPoint, len(camp.Faults)),
	}
	for i, f := range camp.Faults {
		k.Faults[i] = store.FaultPoint{
			Net:       uint32(f.Net),
			Model:     uint8(f.Model),
			FromCycle: int32(f.FromCycle),
			ToCycle:   int32(f.ToCycle),
			Lanes:     f.Lanes,
		}
	}
	if p := camp.Persistent; p != nil {
		k.Persistent = &store.PersistentPoint{Entry: uint32(p.Entry), Mask: p.Mask}
	}
	return k
}

// ResultsView is the zero-simulation answer to "what does the store already
// know about this campaign?". Partial always carries the sum over every
// cached batch; Result is set only when the cache covers the whole
// campaign, in which case it is bit-identical to what executing the job
// would return.
type ResultsView struct {
	CampaignDigest string `json:"campaign_digest"`
	NetlistDigest  string `json:"netlist_digest"`
	EngineVersion  string `json:"engine_version"`
	Runs           int    `json:"runs"`
	Batches        int    `json:"batches"`
	CachedBatches  int    `json:"cached_batches"`
	// Complete reports whether every batch of the campaign is cached.
	Complete bool            `json:"complete"`
	Result   *CampaignResult `json:"result,omitempty"`
	Partial  CampaignResult  `json:"partial"`
}

// Results answers a campaign query purely from the store: req is the
// campaign request a submission would carry, and the design comes from the
// design cache (to compute the content address) but not a single run is
// simulated. A service without a result store answers honestly with zero
// cached batches.
func (s *Service) Results(req JobRequest) (ResultsView, error) {
	if req.Kind != KindCampaign {
		return ResultsView{}, fmt.Errorf("results query needs a campaign request, got kind %q", req.Kind)
	}
	if err := req.Validate(); err != nil {
		return ResultsView{}, fmt.Errorf("invalid request: %w", err)
	}
	e, err := s.designs.get(req.Design)
	if err != nil {
		return ResultsView{}, err
	}
	camp, err := buildCampaign(e.d, req.Campaign, s.cfg.engineDefaults())
	if err != nil {
		return ResultsView{}, fmt.Errorf("invalid request: %w", err)
	}
	netlistDigest, err := e.digest()
	if err != nil {
		return ResultsView{}, err
	}
	addr := campaignAddress(netlistDigest, camp)
	digest := addr.Digest()
	view := ResultsView{
		CampaignDigest: digest.String(),
		NetlistDigest:  addr.Netlist.String(),
		EngineVersion:  addr.Engine,
		Runs:           camp.Runs,
		Batches:        camp.NumBatches(),
	}
	for b := 0; b < view.Batches; b++ {
		k := store.BatchKey{Campaign: digest, Batch: b, Runs: camp.BatchRuns(b)}
		if c, ok := s.results.PeekBatch(k); ok {
			view.CachedBatches++
			view.Partial.Accumulate(CampaignResult(c))
		}
	}
	if view.CachedBatches == view.Batches {
		view.Complete = true
		r := view.Partial
		view.Result = &r
	}
	return view, nil
}

// StoredRuns lists every campaign run record, first-seen order.
func (s *Service) StoredRuns() []RunRecord {
	recs := s.results.Runs()
	if recs == nil {
		recs = []RunRecord{}
	}
	return recs
}

// StoredRun returns one run record by ID.
func (s *Service) StoredRun(id string) (RunRecord, error) {
	rec, ok := s.results.Run(id)
	if !ok {
		return RunRecord{}, ErrUnknownJob
	}
	return rec, nil
}

// runProvenance tracks one campaign execution's run record as it evolves:
// written once when execution starts, superseded with the replay/simulation
// split and final state when it ends.
type runProvenance struct {
	s   *Service
	rec store.RunRecord
}

// beginRunRecord writes the "running" provenance record for one campaign
// job's execution. Nil-safe throughout: without a result store it degrades
// to pure bookkeeping that is never persisted.
func (s *Service) beginRunRecord(j *job, t *campaignTask) *runProvenance {
	p := &runProvenance{s: s, rec: store.RunRecord{
		ID:        j.ID,
		JobID:     j.ID,
		Kind:      string(j.req.Kind),
		Runs:      t.camp.Runs,
		Batches:   t.camp.NumBatches(),
		State:     string(StateRunning),
		Submitted: j.Submitted,
		Started:   time.Now().UTC(),
	}}
	if b, err := json.Marshal(j.req); err == nil {
		p.rec.Request = b
	}
	if t.useStore {
		p.rec.Netlist = t.addr.Netlist.String()
		p.rec.Campaign = t.digest.String()
		p.rec.Engine = t.addr.Engine
	}
	_ = s.results.PutRun(p.rec)
	return p
}

// finish supersedes the record with the terminal (or interrupted) state and
// the replay/simulation split of last, the execution's final advance. An
// interrupted execution — drain or user cancel — stays distinguishable from
// a failed one: its batches remain valid and a resume continues them.
func (p *runProvenance) finish(err error, res CampaignResult, last distProgress) {
	now := time.Now().UTC()
	p.rec.Finished = &now
	p.rec.ReplayedBatches, p.rec.SimulatedBatches = last.replayedBatches, last.simulatedBatches
	switch {
	case err == nil:
		p.rec.State = string(StateDone)
		c := store.Counts(res)
		p.rec.Result = &c
	case isCanceled(err):
		p.rec.State = "interrupted"
		p.rec.Error = err.Error()
	default:
		p.rec.State = string(StateFailed)
		p.rec.Error = err.Error()
	}
	_ = p.s.results.PutRun(p.rec)
}
