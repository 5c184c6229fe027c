package sim

import (
	"sync/atomic"

	"repro/internal/obs"
)

// metrics is the package's instrument set. It is swapped in atomically by
// EnableObservability so the hot paths pay one pointer load (and nothing
// else) while observability is disabled.
type metrics struct {
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	compiles    *obs.Counter
	evals       *obs.Counter
	lanes       *obs.Counter
	laneWords   *obs.Gauge
	wideEngines *obs.Counter
	progInsts   *obs.Gauge
	progRuns    *obs.Gauge
}

var met atomic.Pointer[metrics]

// EnableObservability registers the simulator's metrics on reg and starts
// recording into them. Passing nil reverts to the free no-op default. The
// instruments only count work performed; they never influence evaluation, so
// simulation results are identical with observability on or off.
func EnableObservability(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	met.Store(&metrics{
		cacheHits:   reg.NewCounter("scone_sim_compile_cache_hits_total", "CompileCached requests served from the program memoised on their module"),
		cacheMisses: reg.NewCounter("scone_sim_compile_cache_misses_total", "CompileCached requests that compiled a module with no memoised program"),
		compiles:    reg.NewCounter("scone_sim_compiles_total", "Modules lowered to instruction streams"),
		evals:       reg.NewCounter("scone_sim_evals_total", "Combinational evaluation passes executed"),
		lanes:       reg.NewCounter("scone_sim_lanes_total", "Simulation lanes evaluated (64 x lane words per eval pass)"),
		laneWords:   reg.NewGauge("scone_sim_lane_words_count", "Word width W of the most recently constructed engine"),
		wideEngines: reg.NewCounter("scone_sim_wide_engines_total", "Engines constructed with a word width above one"),
		progInsts:   reg.NewGauge("scone_sim_run_table_instructions_count", "Fast-stream instructions in the most recently compiled module"),
		progRuns:    reg.NewGauge("scone_sim_run_table_runs_count", "Homogeneous opcode runs in the most recently compiled module"),
	})
}

// countEval records one combinational pass over the given lane count;
// called from Eval.
func countEval(lanes int) {
	if m := met.Load(); m != nil {
		m.evals.Inc()
		m.lanes.Add(int64(lanes))
	}
}

// countNewEngine records an engine construction and its word width.
func countNewEngine(laneWords int) {
	if m := met.Load(); m != nil {
		m.laneWords.Set(int64(laneWords))
		if laneWords > 1 {
			m.wideEngines.Inc()
		}
	}
}

// countCompile records a fresh compilation and the occupancy of its run
// table (instructions and homogeneous runs — the ratio is the average run
// length the specialised loops get to execute).
func countCompile(p *program) {
	if m := met.Load(); m != nil {
		m.compiles.Inc()
		m.progInsts.Set(int64(len(p.rOut)))
		m.progRuns.Set(int64(len(p.runs)))
	}
}

// countCacheHit / countCacheMiss record CompileCached outcomes.
func countCacheHit() {
	if m := met.Load(); m != nil {
		m.cacheHits.Inc()
	}
}

func countCacheMiss() {
	if m := met.Load(); m != nil {
		m.cacheMisses.Inc()
	}
}
