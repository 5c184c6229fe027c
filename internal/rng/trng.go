package rng

import "fmt"

// RingOscillatorTRNG is a behavioural model of the classic ring-oscillator
// true random number generator the paper presumes on chip (Wold & Tan,
// ReConFig 2008): a free-running ring oscillator is sampled by an unrelated
// system clock; accumulated period jitter makes the sampled bit
// unpredictable. The model draws the jittered phase from an internal
// deterministic noise process so simulations stay reproducible, injects a
// configurable duty-cycle bias (real TRNGs are biased, which is exactly
// why the corrector stage exists), and optionally passes the raw bits
// through a von Neumann corrector.
type RingOscillatorTRNG struct {
	noise *Xoshiro

	// phase is the oscillator phase in [0, 1) at the last sample.
	phase float64
	// ratio is the (irrational-ish) oscillator-to-sample frequency
	// ratio; its fractional part advances the phase every sample.
	ratio float64
	// jitterPPM is the standard-ish deviation of per-sample phase
	// noise, in parts per million of one period.
	jitterPPM float64
	// bias shifts the duty cycle: the sampled bit is 1 while the phase
	// is below 0.5+bias.
	bias float64
	// corrected enables the von Neumann corrector.
	corrected bool

	rawCount uint64
	outCount uint64
}

// TRNGOption configures the model.
type TRNGOption func(*RingOscillatorTRNG)

// WithBias sets the raw duty-cycle bias (default 0.05, a realistic skew).
func WithBias(b float64) TRNGOption {
	return func(t *RingOscillatorTRNG) { t.bias = b }
}

// WithoutCorrector disables the von Neumann stage, exposing raw (biased)
// bits — used by tests to demonstrate why the corrector matters.
func WithoutCorrector() TRNGOption {
	return func(t *RingOscillatorTRNG) { t.corrected = false }
}

// NewRingOscillatorTRNG creates the model with a deterministic noise seed.
func NewRingOscillatorTRNG(seed uint64, opts ...TRNGOption) *RingOscillatorTRNG {
	t := &RingOscillatorTRNG{
		noise:     NewXoshiro(seed),
		ratio:     16.61803398874989, // far from a rational lock-in
		jitterPPM: 900,
		bias:      0.05,
		corrected: true,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// gaussian draws an approximately normal value via the sum of twelve
// uniforms (Irwin-Hall), entirely deterministic from the noise PRNG.
func (t *RingOscillatorTRNG) gaussian() float64 {
	sum := 0.0
	for i := 0; i < 12; i++ {
		sum += float64(t.noise.Uint64()>>11) / (1 << 53)
	}
	return sum - 6
}

// RawBit samples the oscillator once.
func (t *RingOscillatorTRNG) RawBit() uint64 {
	t.rawCount++
	t.phase += t.ratio + t.gaussian()*t.jitterPPM/1e6*t.ratio
	t.phase -= float64(int64(t.phase)) // keep the fractional part
	if t.phase < 0 {
		t.phase++
	}
	if t.phase < 0.5+t.bias {
		return 1
	}
	return 0
}

// Bit returns one output bit, after the corrector when enabled. The von
// Neumann corrector maps raw pairs 01 -> 0 and 10 -> 1, discarding 00/11,
// which removes any constant bias at the cost of throughput.
func (t *RingOscillatorTRNG) Bit() uint64 {
	defer func() { t.outCount++ }()
	if !t.corrected {
		return t.RawBit()
	}
	for {
		a := t.RawBit()
		b := t.RawBit()
		if a != b {
			return b
		}
	}
}

// Bits implements Source.
func (t *RingOscillatorTRNG) Bits(n int) uint64 {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("rng: Bits(%d) out of range", n))
	}
	var out uint64
	for i := 0; i < n; i++ {
		out |= t.Bit() << uint(i)
	}
	return out
}

// Throughput reports raw samples consumed and corrected bits produced —
// the corrector's cost, visible in benchmarks.
func (t *RingOscillatorTRNG) Throughput() (raw, out uint64) {
	return t.rawCount, t.outCount
}

// --- health tests (NIST SP 800-90B style) -------------------------------

// HealthMonitor wraps a Source with the two continuous health tests every
// deployed TRNG runs: the repetition-count test and the adaptive-
// proportion test. A countermeasure must stop trusting λ when its entropy
// source fails, so the harness exposes this wrapper.
type HealthMonitor struct {
	src Source

	repCount   int
	lastBit    uint64
	repCutoff  int
	window     []uint64
	windowLen  int
	propCutoff int

	failed bool
}

// NewHealthMonitor wraps src. Cutoffs follow SP 800-90B's recommendations
// for one bit of entropy per sample: repetition cutoff 41, adaptive
// proportion cutoff 624 ones (or zeros) in a 1024-bit window.
func NewHealthMonitor(src Source) *HealthMonitor {
	return &HealthMonitor{
		src:        src,
		repCutoff:  41,
		windowLen:  1024,
		propCutoff: 624,
	}
}

// Failed reports whether either health test has tripped.
func (h *HealthMonitor) Failed() bool { return h.failed }

// Bits implements Source, feeding every bit through the tests.
func (h *HealthMonitor) Bits(n int) uint64 {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("rng: Bits(%d) out of range", n))
	}
	var out uint64
	for i := 0; i < n; i++ {
		b := h.src.Bits(1)
		h.observe(b)
		out |= b << uint(i)
	}
	return out
}

func (h *HealthMonitor) observe(b uint64) {
	// Repetition count test.
	if b == h.lastBit && len(h.window) > 0 {
		h.repCount++
		if h.repCount >= h.repCutoff {
			h.failed = true
		}
	} else {
		h.repCount = 1
	}
	h.lastBit = b

	// Adaptive proportion test over a sliding window.
	h.window = append(h.window, b)
	if len(h.window) >= h.windowLen {
		ones := 0
		for _, w := range h.window {
			ones += int(w)
		}
		if ones >= h.propCutoff || len(h.window)-ones >= h.propCutoff {
			h.failed = true
		}
		h.window = h.window[:0]
	}
}
