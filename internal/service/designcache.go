package service

// The design cache. Campaign, multifault and leakage jobs, Results queries
// and worker leases take their synthesised core from one, so a host builds,
// compiles and digests each design once instead of once per job or lease.

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/store"
)

// designCacheSize bounds a DesignCache. The paper's evaluation runs its
// campaigns against a handful of cores; the oldest entry is evicted first.
const designCacheSize = 16

// DesignCache builds each synthesised design once and shares it between
// callers. The Service owns one and every client.Worker owns one; nothing
// is cached process-wide. Entries are keyed by the resolved design (cipher
// plus core.Options), so the zero DesignSpec and its spelled-out defaults
// share an entry, and so do scheme aliases. Inline-netlist specs never
// enter the cache.
//
// Cached designs are read-only. A caller that rewires a netlist in place
// (the FTA attack's pin isolation) builds a private design with
// BuildDesign instead. A caller holding an evicted entry keeps using it.
type DesignCache struct {
	mu      sync.Mutex
	entries map[designKey]*designEntry
	added   uint64 // insertion counter; the smallest seq is evicted first
}

// designKey is a design's cache identity: everything core.Build reads.
type designKey struct {
	cipher string
	opts   core.Options
}

// designEntry is one cached design. Its compiled program is memoised on
// d.Mod (sim.CompileCached), so it is freed with the design; the netlist
// digest that store addresses hash is computed on first use.
type designEntry struct {
	seq    uint64
	ready  chan struct{} // closed once d and err are set
	d      *core.Design
	err    error
	digest func() (store.Digest, error)
}

// NewDesignCache returns an empty cache.
func NewDesignCache() *DesignCache {
	return &DesignCache{entries: make(map[designKey]*designEntry)}
}

// get returns ds's entry, building and compiling the design on the first
// request. Concurrent first requests build once; a failed build is not
// cached, so the next request retries it.
func (c *DesignCache) get(ds DesignSpec) (*designEntry, error) {
	spec, opts, err := synthesisInputs(ds)
	if err != nil {
		return nil, err
	}
	k := designKey{cipher: spec.Name, opts: opts}
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.added++
		e = &designEntry{seq: c.added, ready: make(chan struct{})}
		c.entries[k] = e
	}
	c.mu.Unlock()
	if ok {
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e, nil
	}

	e.d, e.err = buildCore(spec, opts)
	if e.err == nil {
		_, e.err = sim.CompileCached(e.d.Mod)
	}
	if e.err != nil {
		c.mu.Lock()
		if c.entries[k] == e {
			delete(c.entries, k)
		}
		c.mu.Unlock()
		close(e.ready)
		return nil, e.err
	}
	d := e.d
	e.digest = sync.OnceValues(func() (store.Digest, error) {
		var buf bytes.Buffer
		if err := d.Mod.WriteText(&buf); err != nil {
			return store.Digest{}, fmt.Errorf("service: digest netlist: %w", err)
		}
		return store.HashBytes(buf.Bytes()), nil
	})
	close(e.ready)

	// Only a built design takes a place in the bound, so a stream of
	// unbuildable specs cannot flush the designs in use.
	c.mu.Lock()
	for len(c.entries) > designCacheSize {
		c.evictOldestLocked()
	}
	c.mu.Unlock()
	return e, nil
}

// evictOldestLocked drops the entry inserted first.
func (c *DesignCache) evictOldestLocked() {
	var oldest designKey
	var seq uint64
	for k, e := range c.entries {
		if seq == 0 || e.seq < seq {
			oldest, seq = k, e.seq
		}
	}
	delete(c.entries, oldest)
}

// Campaign is BuildCampaign over the cached design: the engine campaign a
// validated campaign request (or a lease grant) describes.
func (c *DesignCache) Campaign(ds DesignSpec, cs *CampaignSpec, def EngineDefaults) (*fault.Campaign, error) {
	e, err := c.get(ds)
	if err != nil {
		return nil, err
	}
	return buildCampaign(e.d, cs, def)
}
