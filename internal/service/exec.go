package service

// The service's one campaign executor. Every campaign the service runs — a
// campaign job's batches, a multifault placement, a pruning singleton —
// is a campaignTask handed to execute, which runs it in-process with
// result-store splicing or, on a coordinator, through the lease fabric.
// Both paths merge in batch order and report the same advances, so the
// callers above (the campaign job kind, the multifault sweep) never know
// which one ran.

import (
	"context"
	"errors"

	"repro/internal/fault"
	"repro/internal/sim"
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

// campaignAdvance reports growth of a task's merged contiguous batch
// prefix.
type campaignAdvance struct {
	cursor int            // batches [0, cursor) are merged
	counts CampaignResult // their summed tally
	// replayedBatches and simulatedBatches split this advance's batches
	// between result-store replay and fresh simulation.
	replayedBatches  int
	simulatedBatches int
}

// execute runs the task's batches [start, NumBatches) on top of acc, the
// tally of batches [0, start), and returns the whole campaign's tally.
// onAdvance, when non-nil, is called from the calling goroutine each time
// the merged prefix grows: after every checkpoint-sized chunk in-process,
// on every merge-cursor advance on the fabric. The final advance always
// precedes the return, so on cancellation or failure it names the durable
// prefix. The simulated/replayed run counters are kept here, once for both
// paths.
func (s *Service) execute(ctx context.Context, t *campaignTask, start int, acc CampaignResult, onAdvance func(campaignAdvance)) (CampaignResult, error) {
	if onAdvance == nil {
		onAdvance = func(campaignAdvance) {}
	}
	if s.dist != nil {
		return s.executeDistributed(ctx, t, start, acc, onAdvance)
	}
	return s.executeLocal(ctx, t, start, acc, onAdvance)
}

// executeLocal walks the remaining batches in checkpoint-sized chunks,
// splicing cached batches from the result store and simulating the rest.
func (s *Service) executeLocal(ctx context.Context, t *campaignTask, start int, acc CampaignResult, onAdvance func(campaignAdvance)) (CampaignResult, error) {
	batches := t.camp.NumBatches()
	chunk := (s.cfg.CheckpointEveryRuns + sim.Lanes - 1) / sim.Lanes
	if chunk < 1 {
		chunk = 1
	}
	for b := start; b < batches; {
		end := b + chunk
		if end > batches {
			end = batches
		}
		d, err := s.executeRange(ctx, t, b, end)
		acc.Accumulate(d.counts)
		s.Metrics.RunsSimulated.Add(int64(d.simulatedRuns))
		s.Metrics.RunsReplayed.Add(int64(d.replayedRuns))
		b += d.completed
		onAdvance(campaignAdvance{
			cursor:           b,
			counts:           acc,
			replayedBatches:  d.replayedBatches,
			simulatedBatches: d.completed - d.replayedBatches,
		})
		if err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// executeDistributed registers the remaining batches with the coordinator,
// whose workers pull and execute them as leases, and follows the merge
// cursor until it covers every batch. On drain or cancel the last advance
// carries the merged prefix, so only the remainder is re-leased later;
// determinism makes the outcome independent of where the cut lands.
func (s *Service) executeDistributed(ctx context.Context, t *campaignTask, start int, acc CampaignResult, onAdvance func(campaignAdvance)) (CampaignResult, error) {
	dj := s.dist.register(t, start, acc)
	defer s.dist.unregister(t.id)

	last := distProgress{cursor: start, acc: acc}
	report := func(p distProgress) {
		if p.cursor == last.cursor {
			return
		}
		// Split the new runs between replayed (batches the store
		// pre-completed at register time) and simulated (worker leases).
		replayed := p.replayedRuns - last.replayedRuns
		s.Metrics.RunsSimulated.Add(int64(p.acc.Total - last.acc.Total - replayed))
		s.Metrics.RunsReplayed.Add(int64(replayed))
		rb := p.replayedBatches - last.replayedBatches
		onAdvance(campaignAdvance{
			cursor:           p.cursor,
			counts:           p.acc,
			replayedBatches:  rb,
			simulatedBatches: p.cursor - last.cursor - rb,
		})
		last = p
	}
	for {
		select {
		case <-ctx.Done():
			report(s.dist.snapshot(t.id))
			return last.acc, ctx.Err()
		case <-dj.notify:
			p := s.dist.snapshot(t.id)
			report(p)
			if p.failed != "" {
				return last.acc, errors.New(p.failed)
			}
			if p.done {
				return last.acc, nil
			}
		}
	}
}

// rangeDelta is one executeRange outcome: the merged counts of the range's
// completed contiguous prefix and how that work split between replay and
// simulation.
type rangeDelta struct {
	counts          CampaignResult
	completed       int // batches of the contiguous prefix
	replayedBatches int
	replayedRuns    int
	simulatedRuns   int
}

// executeRange runs the batch range [first, last) with store splicing. The
// cache is consulted exactly once per batch up front (so the hit/miss
// instruments measure the replay decision precisely), then the range is
// walked as alternating cached and uncached segments: cached batches merge
// their stored counts and count as replays, uncached segments execute with
// a per-batch hook that stores each fresh tally under its content address.
// Like ExecuteBatchesFunc, the returned delta covers a contiguous prefix of
// the range on cancellation.
func (s *Service) executeRange(ctx context.Context, t *campaignTask, first, last int) (rangeDelta, error) {
	var d rangeDelta
	var cached []*store.Counts
	if t.useStore {
		cached = cachedBatches(s.results, t, first, last)
	}
	for b := first; b < last; {
		if cached != nil && cached[b-first] != nil {
			c := *cached[b-first]
			accumulateCounts(&d.counts, c)
			fault.CountReplay(1, fault.Result{Total: c.Total})
			d.replayedBatches++
			d.replayedRuns += c.Total
			d.completed++
			b++
			continue
		}
		end := b
		for end < last && (cached == nil || cached[end-first] == nil) {
			end++
		}
		res, execErr := t.camp.ExecuteBatchesFunc(ctx, b, end, nil, func(bi int, r fault.Result) {
			if t.useStore {
				k := store.BatchKey{Campaign: t.digest, Batch: bi, Runs: r.Total}
				_ = s.results.PutBatch(k, faultCounts(r)) // conflicts/failures count in the store's own instruments
			}
		})
		d.counts.Add(res)
		d.simulatedRuns += res.Total
		// Completed batches are always full sim.Lanes wide except the
		// campaign's final batch, which only completes error-free.
		done := res.Total / sim.Lanes
		if execErr == nil {
			done = end - b
		}
		d.completed += done
		if execErr != nil {
			return d, execErr
		}
		b = end
	}
	return d, nil
}

// cachedBatches consults the result store once per batch of the task's
// range [first, last), returning each batch's stored tally or nil where the
// batch is uncached.
func cachedBatches(st *store.Store, t *campaignTask, first, last int) []*store.Counts {
	cached := make([]*store.Counts, last-first)
	for b := first; b < last; b++ {
		k := store.BatchKey{Campaign: t.digest, Batch: b, Runs: t.camp.BatchRuns(b)}
		if c, ok := st.GetBatch(k); ok {
			cc := c
			cached[b-first] = &cc
		}
	}
	return cached
}
