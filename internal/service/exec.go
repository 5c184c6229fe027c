package service

// The service's one campaign executor. Every campaign the service runs — a
// campaign job's batches, a multifault placement, a pruning singleton — is
// a campaignTask handed to execute, which registers it in the lease table
// (dist.go). Without Config.Dist the job's own goroutine claims and runs the
// leases, one checkpoint chunk each; on a coordinator remote workers pull
// them. Either way every tally enters through the same merge, so the callers
// above (the campaign job kind, the multifault sweep) never know who ran a
// batch.

import (
	"context"
	"errors"

	"repro/internal/fault"
	"repro/internal/store"
)

// campaignTask is one campaign execution: the built engine campaign, the
// request a lease grant ships to workers, and its result-store address.
type campaignTask struct {
	// id names the task in the lease table: the job ID for campaign jobs,
	// "<job>/t<i>" or "<job>/s<i>" for multifault placements and singletons.
	id   string
	req  JobRequest
	camp *fault.Campaign
	// addr and digest address the campaign in the result store. useStore
	// gates every store interaction: it is false without a store or when
	// addressing failed — the store is an accelerator, never a dependency.
	addr     store.CampaignKey
	digest   store.Digest
	useStore bool
}

// newCampaignTask builds the engine campaign for cs against the cached
// design e (built from ds) and, when the service has a result store,
// resolves its store address.
func (s *Service) newCampaignTask(id string, ds DesignSpec, e *designEntry, cs *CampaignSpec) (*campaignTask, error) {
	camp, err := buildCampaign(e.d, cs, s.cfg.engineDefaults())
	if err != nil {
		return nil, err
	}
	t := &campaignTask{id: id, req: JobRequest{Kind: KindCampaign, Design: ds, Campaign: cs}, camp: camp}
	if s.results != nil {
		if netlistDigest, err := e.digest(); err == nil {
			t.addr = campaignAddress(netlistDigest, camp)
			t.digest, t.useStore = t.addr.Digest(), true
		}
	}
	return t, nil
}

// execute runs the task's batches [start, NumBatches) on top of acc, the
// tally of batches [0, start), and returns the whole campaign's tally.
// onAdvance, when non-nil, is called from the calling goroutine each time
// the merged prefix grows: after every in-process claim, on every merge
// advance on a coordinator. Every advance is reported before execute
// returns, failures included, so the last one names the durable prefix. The
// simulated/replayed run counters are kept here.
func (s *Service) execute(ctx context.Context, t *campaignTask, start int, acc CampaignResult, onAdvance func(distProgress)) (CampaignResult, error) {
	c := s.dist
	dj := c.register(t, start, acc)
	defer c.unregister(t.id)
	last := distProgress{cursor: start, acc: acc}
	var err error
	for {
		// The first pass reads what register already merged: a fully
		// cached or resumed-at-the-end campaign is done before any wait.
		changed := c.changed()
		p := c.snapshot(t.id)
		if p.cursor != last.cursor {
			replayed := p.replayedRuns - last.replayedRuns
			s.Metrics.RunsSimulated.Add(int64(p.acc.Total - last.acc.Total - replayed))
			s.Metrics.RunsReplayed.Add(int64(replayed))
			if onAdvance != nil {
				onAdvance(p)
			}
			last = p
		}
		switch {
		case err != nil:
			return last.acc, err
		case p.failed != "":
			return last.acc, errors.New(p.failed)
		case p.done:
			return last.acc, nil
		}
		if l := c.claim(dj); l != nil {
			err = c.runClaim(ctx, dj, l)
			continue
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-changed:
		}
	}
}
