package service

// The result-store integration: campaign content addressing, the zero-
// simulation read surface (GET /v1/results, /v1/runs) and the conversion
// helpers between the engine's tallies and the store's record types.
//
// A campaign's content address covers everything a batch outcome depends on
// except the batch index: the canonical netlist text of the built design,
// the engine version, the cipher key, the seed and the resolved fault
// points. Address equality therefore means batch-for-batch result equality
// (the determinism contract), which is what makes stored batches safe to
// splice into live executions.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
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

// campaignAddress computes the content address of a built campaign. It
// hashes the design's canonical text serialisation — the same bytes a
// netlist round-trip preserves — and copies the resolved fault points field
// for field, so two submissions address equal keys exactly when the engine
// would simulate identical batches.
func campaignAddress(camp *fault.Campaign) (store.CampaignKey, error) {
	var buf bytes.Buffer
	if err := camp.Design.Mod.WriteText(&buf); err != nil {
		return store.CampaignKey{}, fmt.Errorf("service: digest netlist: %w", err)
	}
	k := store.CampaignKey{
		Netlist: store.HashBytes(buf.Bytes()),
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
	return k, nil
}

// storeCounts converts a wire tally to the store's batch record form.
func storeCounts(c CampaignResult) store.Counts {
	return store.Counts{
		Total:       c.Total,
		Ineffective: c.Ineffective,
		Detected:    c.Detected,
		Effective:   c.Effective,
		Corrected:   c.Corrected,
	}
}

// faultCounts converts an engine batch result to the store's record form.
func faultCounts(r fault.Result) store.Counts {
	return store.Counts{
		Total:       r.Total,
		Ineffective: r.Ineffective(),
		Detected:    r.Detected(),
		Effective:   r.Effective(),
		Corrected:   r.Corrected(),
	}
}

// accumulateCounts folds one stored batch into a wire tally.
func accumulateCounts(acc *CampaignResult, c store.Counts) {
	acc.Total += c.Total
	acc.Ineffective += c.Ineffective
	acc.Detected += c.Detected
	acc.Effective += c.Effective
	acc.Corrected += c.Corrected
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

// Results answers a campaign query purely from the store: the design is
// synthesised (to compute the content address) but not a single run is
// simulated. A service without a result store answers honestly with zero
// cached batches.
func (s *Service) Results(req JobRequest) (ResultsView, error) {
	if req.Kind != KindCampaign {
		return ResultsView{}, fmt.Errorf("results query needs a campaign request, got kind %q", req.Kind)
	}
	if err := req.Validate(); err != nil {
		return ResultsView{}, fmt.Errorf("invalid request: %w", err)
	}
	camp, err := BuildCampaign(req.Design, req.Campaign, s.cfg.engineDefaults())
	if err != nil {
		return ResultsView{}, err
	}
	addr, err := campaignAddress(camp)
	if err != nil {
		return ResultsView{}, err
	}
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
			accumulateCounts(&view.Partial, c)
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

// ResultsQueryValues encodes a campaign request as the GET /v1/results
// query string. It is the inverse of ParseResultsQuery, restricted to the
// single-fault form the query vocabulary (the sconectl submit flags) can
// express.
func ResultsQueryValues(req JobRequest) (url.Values, error) {
	if req.Kind != KindCampaign || req.Campaign == nil {
		return nil, fmt.Errorf("results query needs a campaign request")
	}
	if len(req.Campaign.Faults) != 1 {
		return nil, fmt.Errorf("results query expresses exactly one fault, got %d", len(req.Campaign.Faults))
	}
	c, f := req.Campaign, req.Campaign.Faults[0]
	v := url.Values{}
	set := func(key, val string) {
		if val != "" {
			v.Set(key, val)
		}
	}
	set("cipher", req.Design.Cipher)
	set("scheme", req.Design.Scheme)
	set("entropy", req.Design.Entropy)
	set("engine", req.Design.Engine)
	if req.Design.SeparateSbox {
		v.Set("separate_sbox", "true")
	}
	v.Set("runs", strconv.Itoa(c.Runs))
	v.Set("seed", "0x"+strconv.FormatUint(uint64(c.Seed), 16))
	v.Set("key", "0x"+strconv.FormatUint(uint64(c.Key[0]), 16)+",0x"+strconv.FormatUint(uint64(c.Key[1]), 16))
	v.Set("sbox", strconv.Itoa(f.Sbox))
	v.Set("bit", strconv.Itoa(f.Bit))
	set("model", f.Model)
	set("branch", f.Branch)
	if f.Cycle != nil {
		v.Set("cycle", strconv.Itoa(*f.Cycle))
	}
	return v, nil
}

// resultsQueryKeys is the GET /v1/results query vocabulary.
var resultsQueryKeys = map[string]bool{
	"cipher": true, "scheme": true, "entropy": true, "engine": true, "separate_sbox": true,
	"runs": true, "seed": true, "key": true, "sbox": true, "bit": true, "model": true, "branch": true, "cycle": true,
}

// ParseResultsQuery decodes the GET /v1/results query string into a
// campaign request, mirroring the sconectl submit flag vocabulary: cipher,
// scheme, entropy, engine, separate_sbox, runs, seed, key, sbox, bit,
// model, branch, cycle. Absent parameters take the submit defaults; any
// other parameter is refused, as POST /v1/jobs refuses unknown fields, so
// a misspelled key can never answer for the default campaign.
func ParseResultsQuery(v url.Values) (JobRequest, error) {
	var unknown []string
	for k := range v {
		if !resultsQueryKeys[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return JobRequest{}, fmt.Errorf("unknown results query parameters %q", unknown)
	}
	req := JobRequest{
		Kind: KindCampaign,
		Design: DesignSpec{
			Cipher:  v.Get("cipher"),
			Scheme:  v.Get("scheme"),
			Entropy: v.Get("entropy"),
			Engine:  v.Get("engine"),
		},
	}
	var err error
	if req.Design.SeparateSbox, err = queryBool(v, "separate_sbox"); err != nil {
		return req, err
	}
	c := &CampaignSpec{Runs: 80000}
	if c.Runs, err = queryInt(v, "runs", c.Runs); err != nil {
		return req, err
	}
	if c.Seed, err = queryU64(v, "seed", 0x5C09E2021); err != nil {
		return req, err
	}
	c.Key = [2]U64{0x0123456789ABCDEF, 0x8421}
	if raw := v.Get("key"); raw != "" {
		if c.Key, err = splitKey(raw); err != nil {
			return req, err
		}
	}
	f := FaultSpec{Sbox: 13, Bit: 2, Model: v.Get("model"), Branch: v.Get("branch")}
	if f.Sbox, err = queryInt(v, "sbox", f.Sbox); err != nil {
		return req, err
	}
	if f.Bit, err = queryInt(v, "bit", f.Bit); err != nil {
		return req, err
	}
	if raw := v.Get("cycle"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return req, fmt.Errorf("bad cycle %q", raw)
		}
		f.Cycle = &n
	}
	c.Faults = []FaultSpec{f}
	req.Campaign = c
	return req, nil
}

func queryInt(v url.Values, key string, def int) (int, error) {
	raw := v.Get(key)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, raw)
	}
	return n, nil
}

func queryU64(v url.Values, key string, def U64) (U64, error) {
	raw := v.Get(key)
	if raw == "" {
		return def, nil
	}
	u, err := ParseU64(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, raw)
	}
	return u, nil
}

func queryBool(v url.Values, key string) (bool, error) {
	switch raw := v.Get(key); raw {
	case "", "false", "0":
		return false, nil
	case "true", "1":
		return true, nil
	default:
		return false, fmt.Errorf("bad %s %q", key, raw)
	}
}

// splitKey parses the "lo,hi" key form shared with sconectl.
func splitKey(s string) ([2]U64, error) {
	var k [2]U64
	lo, hi, found := strings.Cut(s, ",")
	v, err := ParseU64(lo)
	if err != nil {
		return k, fmt.Errorf("bad key: %w", err)
	}
	k[0] = v
	if found {
		if v, err = ParseU64(hi); err != nil {
			return k, fmt.Errorf("bad key: %w", err)
		}
		k[1] = v
	}
	return k, nil
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
		ID:        j.id,
		JobID:     j.id,
		Kind:      string(j.req.Kind),
		Runs:      t.camp.Runs,
		Batches:   t.camp.NumBatches(),
		State:     string(StateRunning),
		Submitted: j.submitted,
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

// add accumulates the execution's replay/simulation split.
func (p *runProvenance) add(replayedBatches, simulatedBatches int) {
	p.rec.ReplayedBatches += replayedBatches
	p.rec.SimulatedBatches += simulatedBatches
}

// finish supersedes the record with the terminal (or interrupted) state.
// An interrupted execution — drain or user cancel — stays distinguishable
// from a failed one: its batches remain valid and a resume continues them.
func (p *runProvenance) finish(err error, res *CampaignResult) {
	now := time.Now().UTC()
	p.rec.Finished = &now
	switch {
	case err == nil:
		p.rec.State = string(StateDone)
		if res != nil {
			c := storeCounts(*res)
			p.rec.Result = &c
		}
	case isCanceled(err):
		p.rec.State = "interrupted"
		p.rec.Error = err.Error()
	default:
		p.rec.State = string(StateFailed)
		p.rec.Error = err.Error()
	}
	_ = p.s.results.PutRun(p.rec)
}
