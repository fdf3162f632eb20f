package autotune

import (
	"sync"

	"spatialdue/internal/predict"
)

// Cache memoizes tuning decisions by spatial region. The paper's tuner
// costs milliseconds per corruption (Figure 10: 15.83 ms); since the
// locally optimal method is a property of the data *around* the corruption,
// corruptions landing in the same neighborhood can reuse the previous
// decision.
//
// Regions default to dimension-0 bands of `block` rows (one tuning run
// serves every corruption inside the band until invalidated), but the
// recovery engine overrides the mapping with its stripe table via
// SetRegionFunc so cache regions coincide exactly with the engine's unit of
// locking and upload invalidation.
//
// Per-region policy (SetPolicyFunc) feeds spatial analytics back into the
// cache: hot-spot regions get an expiry TTL (counted in cache *uses*, not
// wall time, so replay stays deterministic), a widened re-tune neighborhood,
// and a bias toward the region's historically best method; smooth regions
// keep long-lived entries. Concurrent misses on one region — exactly the
// clustered-burst hot-spot case — are coalesced per-key: one leader runs
// the tuner, followers wait for its result.
//
// Use one Cache per protected array; the cache does not retain the array.
type Cache struct {
	block    int
	regionFn func(idx []int) int
	policyFn func(region int) Policy

	mu      sync.Mutex
	entries map[int]*cacheEntry
	flights map[int]*flight
	stats   CacheStats
}

// Policy tunes one region's caching behavior. The zero value is the
// default: entries live until invalidated, re-tunes use the caller's K,
// no bias.
type Policy struct {
	// TTLUses expires an entry after it has served this many cache hits
	// (0 = never). Counted in uses rather than wall time so that journal
	// replay reproduces the same hit/miss sequence bit for bit.
	TTLUses int
	// WidenK is added to cfg.K when this region re-tunes: hot regions
	// spend more probes to decide, since the decision is reused more.
	WidenK int
	// Bias, when BiasOK, is the region's historically best method. A
	// re-tune prefers it over the fresh winner when its measured score is
	// within biasSlack hit rate of the winner — history breaks near-ties.
	Bias   predict.Method
	BiasOK bool
}

// biasSlack is how far (in hit rate) a biased method may trail the fresh
// winner and still be chosen.
const biasSlack = 0.05

// CacheStats are lifetime counters. Hits+Coalesced+Misses+Expiries is the
// total Select call count (errors excluded — a failed tune is not cached
// and not counted).
type CacheStats struct {
	// Hits served a cached entry without tuning.
	Hits int
	// Misses ran the tuner (one per leader; followers count as Coalesced).
	Misses int
	// Coalesced waited on another goroutine's in-flight tune for the same
	// region instead of running a duplicate.
	Coalesced int
	// Expiries are TTL-expired hits that became misses.
	Expiries int
	// Invalidations counts entries dropped by InvalidateRegions.
	Invalidations int
	// Corrections counts Update calls that replaced a different cached
	// method — the stale-entry fix path.
	Corrections int
}

type cacheEntry struct {
	method predict.Method
	uses   int
}

// flight is one in-progress tune; followers block on done.
type flight struct {
	done   chan struct{}
	method predict.Method
	err    error
}

// DefaultCacheBlock is the default region band height (rows).
const DefaultCacheBlock = 8

// NewCache creates a cache with the given region band height (<= 0 selects
// the default).
func NewCache(block int) *Cache {
	if block <= 0 {
		block = DefaultCacheBlock
	}
	return &Cache{
		block:   block,
		entries: map[int]*cacheEntry{},
		flights: map[int]*flight{},
	}
}

// SetRegionFunc overrides the index→region mapping (the engine passes its
// stripe table). Call before first use; not safe concurrently with Select.
func (c *Cache) SetRegionFunc(fn func(idx []int) int) { c.regionFn = fn }

// SetPolicyFunc installs the per-region policy source (the engine consults
// spatial analytics). Call before first use; the function itself must be
// safe for concurrent use.
func (c *Cache) SetPolicyFunc(fn func(region int) Policy) { c.policyFn = fn }

// Region returns idx's region under the cache's current mapping.
func (c *Cache) Region(idx []int) int {
	if c.regionFn != nil {
		return c.regionFn(idx)
	}
	if len(idx) == 0 {
		return 0
	}
	return idx[0] / c.block
}

func (c *Cache) policy(region int) Policy {
	if c.policyFn == nil {
		return Policy{}
	}
	return c.policyFn(region)
}

// Select returns the cached method for idx's region, or runs the tuner and
// caches its choice. cached reports whether this call skipped the tuner
// (a cache hit, or a coalesced wait on another goroutine's tune).
func (c *Cache) Select(env *predict.Env, idx []int, cfg Config) (m predict.Method, cached bool, err error) {
	region := c.Region(idx)
	pol := c.policy(region)

	c.mu.Lock()
	if e, ok := c.entries[region]; ok {
		if pol.TTLUses > 0 && e.uses >= pol.TTLUses {
			// Entry served its TTL: expire and re-tune below.
			delete(c.entries, region)
			c.stats.Expiries++
		} else {
			e.uses++
			c.stats.Hits++
			m := e.method
			c.mu.Unlock()
			return m, true, nil
		}
	}
	if f, ok := c.flights[region]; ok {
		// Another goroutine is tuning this region: wait for it rather
		// than running a duplicate probe sweep.
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return 0, false, f.err
		}
		c.mu.Lock()
		c.stats.Coalesced++
		c.mu.Unlock()
		return f.method, true, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[region] = f
	c.mu.Unlock()

	m, err = c.tune(env, idx, cfg, region, pol, f)
	if err != nil {
		return 0, false, err
	}
	return m, false, nil
}

// tune is the leader path: run the (possibly widened) tuner, apply the
// region bias, install the entry, and release followers.
func (c *Cache) tune(env *predict.Env, idx []int, cfg Config, region int, pol Policy, f *flight) (predict.Method, error) {
	if pol.WidenK > 0 {
		if cfg.K <= 0 {
			cfg.K = 3
		}
		cfg.K += pol.WidenK
	}
	res, err := Select(env, idx, cfg)

	c.mu.Lock()
	delete(c.flights, region)
	if err != nil {
		// Errors are never cached and never counted: a failed tune must
		// not pollute hit-rate stats or poison the region.
		c.mu.Unlock()
		f.err = err
		close(f.done)
		return 0, err
	}
	chosen := applyBias(res, pol)
	c.entries[region] = &cacheEntry{method: chosen}
	c.stats.Misses++
	c.mu.Unlock()

	f.method = chosen
	close(f.done)
	return chosen, nil
}

// applyBias prefers the region's historical best over the fresh winner when
// the history method actually applied and scored within biasSlack of it.
func applyBias(res Result, pol Policy) predict.Method {
	if !pol.BiasOK || pol.Bias == res.Best {
		return res.Best
	}
	best := res.Scores[0]
	for _, sc := range res.Scores {
		if sc.Method != pol.Bias {
			continue
		}
		if sc.Probes > 0 && sc.HitRate() >= best.HitRate()-biasSlack {
			return pol.Bias
		}
		break
	}
	return res.Best
}

// Update replaces idx's region entry with a freshly observed winner — the
// stale-entry fix: when a cached method fails verification and the ladder's
// fresh tune finds a different winner, the engine publishes that winner here
// so the region's next recovery does not repeat the failure.
func (c *Cache) Update(idx []int, winner predict.Method) {
	region := c.Region(idx)
	c.mu.Lock()
	if old, ok := c.entries[region]; ok && old.method != winner {
		c.stats.Corrections++
	}
	c.entries[region] = &cacheEntry{method: winner}
	c.mu.Unlock()
}

// InvalidateRegions drops only the listed regions' decisions — the
// stripe-granular path: a streaming upload that committed stripes {2,3}
// invalidates those regions (and the engine expands ±1 for stencil reach)
// while the rest of the array keeps its tuned decisions.
func (c *Cache) InvalidateRegions(regions []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range regions {
		if _, ok := c.entries[r]; ok {
			delete(c.entries, r)
			c.stats.Invalidations++
		}
	}
}

// Stats returns lifetime hit/miss counters. Coalesced waits count as hits
// here: the caller skipped a tuner run.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.Hits + c.stats.Coalesced, c.stats.Misses
}

// Counters returns the full lifetime counter set.
func (c *Cache) Counters() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
