// Package core is the paper's recovery engine (Section 3): it ties the
// detection paths (machine-check events, SDC detectors), the memory
// allocation registry, the spatial prediction methods, and the local
// auto-tuner into the end-to-end flow of Figure/Algorithm 1:
//
//	DUE detected at address  →  relate address to a registered allocation
//	→  reconstruct the corrupted element with the allocation's recorded
//	   method (RECOVER_ANY triggers local auto-tuning)
//	→  verify the reconstruction is plausible; escalate through the
//	   recovery ladder (re-tune, alternate methods, checkpoint element
//	   restore) while it is not
//	→  write the verified reconstruction in place and resume
//	→  if the address is not registered, or the ladder is exhausted,
//	   signal that checkpoint-restart is required instead.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/fti"
	"spatialdue/internal/mca"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/spatial"
	"spatialdue/internal/trace"
)

// ErrCheckpointRestartRequired is returned when localized recovery is not
// possible (unregistered address, or the escalation ladder is exhausted)
// and the caller must fall back to rolling back to a checkpoint.
var ErrCheckpointRestartRequired = errors.New("core: checkpoint-restart required")

// ErrRecoveryAbandoned is returned by the context-aware recovery entry
// points when the context expires before a verified value is written: the
// deadline passed while waiting for the array's recovery lock, or mid-climb
// on the escalation ladder. The element stays quarantined, so later
// recoveries of its neighbors never trust it, and a retry (or checkpoint
// restart) remains safe.
var ErrRecoveryAbandoned = errors.New("core: recovery abandoned")

// ErrRecoveriesInFlight is returned by Unprotect while recoveries hold any
// of the array's region stripes: unregistering under a live ladder climb
// would yank state the climb is reading.
var ErrRecoveriesInFlight = errors.New("core: recoveries in flight")

// Options configures an Engine.
type Options struct {
	// Tune configures the RECOVER_ANY auto-tuner. Zero values take the
	// paper's defaults (K=3, 1% tolerance, all headline methods).
	Tune autotune.Config
	// StageHook, when set, is called at every ladder-stage entry. It runs
	// on the recovering goroutine with the array's recovery lock held, so
	// it must not call back into recovery on this engine; report secondary
	// faults with MarkCorrupt (the fault-injection harness does exactly
	// that to exercise double faults).
	StageHook func(StageEvent)
	// TuneCacheBlock, when positive, enables memoization of RECOVER_ANY
	// tuning decisions: one tuner run serves every corruption inside the
	// same lock stripe of an array (see newTuneCache). The value is only a
	// switch; zero disables caching (every corruption re-tunes, as in the
	// paper). RecoverBatch stays bit-identical to sequential recovery
	// either way.
	TuneCacheBlock int
	// Seed makes the Random method and tuning deterministic.
	Seed int64
}

// Fixed engine behaviour: one value each, everywhere the engine runs.
const (
	// provisionalMethod patches the corrupted element while recovery runs:
	// the cell is masked out of every stencil, but raw readers of the array
	// see a bounded placeholder instead of garbage.
	provisionalMethod = predict.MethodAverage
	// maxAlternates is how many next-best tuner candidates the alternate
	// rung tries after the primary and re-tune rungs fail.
	maxAlternates = 3
	// hotTuneTTL is the tune-cache TTL of a hot-spot region (stripe |G*| >=
	// spatial.DefaultHotZ), in served hits — never wall time, so journal
	// replay reproduces the hit/miss sequence. Other regions keep their
	// decision until invalidated.
	hotTuneTTL = 16
	// hotWidenK is added to the tuner's K when a hot-spot region re-tunes:
	// the decision is reused across the region, so it is worth more probes.
	hotWidenK = 2
)

// Outcome describes one completed localized recovery.
type Outcome struct {
	// Allocation is the repaired allocation (nil for direct FTI repairs).
	Allocation *registry.Allocation
	// Offset is the linear element offset repaired.
	Offset int
	// Method is the reconstruction method used (MethodZero with
	// Stage == StageRestore means the value came from a checkpoint).
	Method predict.Method
	// Tuned is true when the method came from RECOVER_ANY auto-tuning.
	Tuned bool
	// Stage is the escalation-ladder rung that produced the value.
	Stage Stage
	// Old is the corrupted value that was replaced; New the reconstruction.
	Old, New float64
}

// Stats are the engine's lifetime counters.
type Stats struct {
	// Recovered counts successful localized recoveries.
	Recovered int
	// Tuned counts recoveries that went through the auto-tuner.
	Tuned int
	// Fallbacks counts checkpoint-restart-required outcomes.
	Fallbacks int
}

// Engine performs localized DUE/SDC recovery.
type Engine struct {
	opts   Options
	table  *registry.Table
	audit  auditLog
	tracer *trace.Collector

	mu        sync.Mutex
	seq       int64
	stats     Stats
	byMethod  map[predict.Method]int64 // lifetime successful recoveries per method
	outcomes  map[outcomeKey]string    // memoized trace-outcome detail strings
	escal     [numStages]int64
	arrays    map[*ndarray.Array]*arrayState // the one per-array record; see stripes.go
	ckptWorld *fti.World
	ckptRank  int

	// Batch accounting (spatialdue_batch_size histogram).
	batchCalls   int64
	batchMembers int64
	batchBuckets [len(batchSizeBuckets)]int64
}

// recLock is a context-aware mutex (one-slot semaphore) guarding one region
// stripe of an array (see stripes.go). Unlike sync.Mutex, acquisition can
// give up when a context expires, so one wedged recovery cannot transitively
// wedge every worker that touches the same region.
type recLock chan struct{}

func newRecLock() recLock { return make(recLock, 1) }

// lock acquires the lock, or returns the context's error if it expires
// first.
func (l recLock) lock(ctx context.Context) error {
	select {
	case l <- struct{}{}:
		return nil
	default:
	}
	select {
	case l <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l recLock) unlock() { <-l }

// NewEngine creates an engine with its own allocation registry.
func NewEngine(opts Options) *Engine {
	if opts.Tune.K <= 0 {
		opts.Tune.K = 3
	}
	if opts.Tune.Tolerance <= 0 {
		opts.Tune.Tolerance = 0.01
	}
	return &Engine{
		opts:     opts,
		table:    registry.NewTable(),
		tracer:   trace.NewCollector(0),
		byMethod: map[predict.Method]int64{},
		outcomes: map[outcomeKey]string{},
		arrays:   map[*ndarray.Array]*arrayState{},
	}
}

// Table exposes the engine's allocation registry.
func (e *Engine) Table() *registry.Table { return e.table }

// Tracer exposes the engine's trace collector: stage-duration histograms
// and the slowest-N trace ring. Recoveries entered without a context trace
// (direct RecoverElement calls) mint and finish their own trace here;
// recoveries carrying a service trace are finished by the service after
// journal completion, so their spans include the journal writes.
func (e *Engine) Tracer() *trace.Collector { return e.tracer }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Protect registers an array for localized recovery — the library-level
// analogue of the paper's FTI_Protect extension. The array's current values
// are snapshotted into the shared recovery statistics, so register before
// faults can land (and call FieldUpdated after replacing the contents).
func (e *Engine) Protect(name string, arr *ndarray.Array, dtype bitflip.DType, policy registry.Policy) *registry.Allocation {
	alloc := e.table.Register(name, arr, dtype, policy)
	e.stateFor(arr)
	return alloc
}

// ProtectTenant is Protect scoped to a tenant namespace: the name must be
// unique within the tenant only (the networked front end registers remote
// allocations through this path).
func (e *Engine) ProtectTenant(tenant, name string, arr *ndarray.Array, dtype bitflip.DType, policy registry.Policy) (*registry.Allocation, error) {
	alloc, err := e.table.RegisterTenant(tenant, name, arr, dtype, policy)
	if err == nil {
		e.stateFor(arr)
	}
	return alloc, err
}

// Unprotect tears down a protected allocation: it unregisters it from the
// table and retires the array's engine record (stripe locks, quarantine set,
// shared statistics, spatial analytics, tuning cache), so a long-running
// multi-tenant server does not grow without bound. It refuses with
// ErrRecoveriesInFlight while any recovery holds one of the array's stripes.
//
// Recoveries racing the teardown: Unprotect takes every stripe before it
// retires the record, and every stripe holder confirms after acquiring that
// its record is still the live one (Engine.acquire). So a holder of the live
// record cannot lose it, and a recovery still waiting when the record was
// retired finds out before it touches a cell. Nothing re-creates the record
// of an unprotected allocation (the caller may already have released the
// array's memory): recoveries submitted after, or overtaken by, the teardown
// fail with ErrCheckpointRestartRequired wrapping registry.ErrNotRegistered.
func (e *Engine) Unprotect(alloc *registry.Allocation) error {
	arr := alloc.Array
	st := e.liveState(arr)
	if st != nil {
		if !st.tryAcquireAll() {
			return fmt.Errorf("%w: %s", ErrRecoveriesInFlight, alloc.Name)
		}
		defer st.releaseAll()
	}
	e.table.Unregister(alloc.ID)
	e.mu.Lock()
	if e.arrays[arr] == st {
		delete(e.arrays, arr)
	}
	e.mu.Unlock()
	return nil
}

// AttachMCA registers the engine as a machine-check handler: uncorrectable
// memory errors with a valid address are recovered in place; anything else
// is declined so the machine can escalate.
func (e *Engine) AttachMCA(m *mca.Machine) {
	m.Handle(func(ev mca.Event) error {
		if !ev.IsDUE() {
			return fmt.Errorf("core: not a recoverable DUE: %v", ev)
		}
		_, err := e.RecoverAddress(ev.Addr)
		return err
	})
}

// AttachCheckpoints gives the escalation ladder a restore rung: when every
// prediction-based recovery of an element fails verification, the element
// is re-read from rank's newest surviving checkpoint in w before the
// engine gives up to whole-state checkpoint-restart.
func (e *Engine) AttachCheckpoints(w *fti.World, rank int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ckptWorld = w
	e.ckptRank = rank
}

// WithArrayLock runs f while holding every region stripe of arr,
// serializing f against every in-flight recovery on the array. External
// mutators of protected data — a network front end accepting field uploads
// or injecting test faults — must use it: predictors and verification scan
// the raw array, so an unsynchronized write races with a concurrent ladder
// climb. After replacing the array's contents wholesale, follow up with
// FieldUpdated so the shared recovery statistics are rebuilt.
func (e *Engine) WithArrayLock(arr *ndarray.Array, f func()) {
	st := e.lockAll(arr)
	defer st.releaseAll()
	f()
}

// RecoverAddress relates a faulting physical address to a registered
// allocation and repairs the affected element (Section 3.3). An
// unregistered address yields ErrCheckpointRestartRequired.
func (e *Engine) RecoverAddress(addr uint64) (Outcome, error) {
	alloc, off, err := e.table.Lookup(addr)
	if err != nil {
		e.finish(&target{name: fmt.Sprintf("addr %#x", addr)}, nil, &member{off: -1}, ladderResult{}, err, nil)
		// Double-wrap so callers can match both the escalation sentinel and
		// the cause — a registry.ErrMetadataCorrupt must stay distinguishable
		// (the HTTP layer maps it to 422, not 404).
		return Outcome{}, fmt.Errorf("%w: %w", ErrCheckpointRestartRequired, err)
	}
	t := allocTarget(alloc)
	return e.recoverOne(context.Background(), &t, off)
}

// RecoverElement reconstructs the element at linear offset off of a
// registered allocation according to its recovery policy, verifies the
// reconstruction (escalating through the recovery ladder on failure),
// writes the value in place, and reports the outcome.
func (e *Engine) RecoverElement(alloc *registry.Allocation, off int) (Outcome, error) {
	return e.RecoverElementCtx(context.Background(), alloc, off)
}

// RecoverElementCtx is RecoverElement under a context. When the context
// expires the call returns ErrRecoveryAbandoned immediately — even if a
// predictor or checkpoint restore is wedged — so a bounded worker pool can
// give up on a stuck recovery without leaking its worker. The abandoned
// climb keeps running in the background holding the array's recovery lock:
// it aborts at its next cooperative checkpoint (every ladder-stage entry and
// every attempt), restores the pre-recovery value, leaves the element
// quarantined, and only then releases the lock, so no concurrent recovery
// ever observes a half-finished repair. A recovery that completes after
// abandonment is still counted and audited.
func (e *Engine) RecoverElementCtx(ctx context.Context, alloc *registry.Allocation, off int) (Outcome, error) {
	t := allocTarget(alloc)
	return e.recoverOne(ctx, &t, off)
}

// MethodCounts returns the lifetime count of successful recoveries per
// reconstruction method. Unlike the bounded audit ring, these counters
// never decrease, so spatialdue_recoveries_by_method stays a true
// Prometheus counter under rate().
func (e *Engine) MethodCounts() map[predict.Method]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[predict.Method]int64, len(e.byMethod))
	for m, n := range e.byMethod {
		out[m] = n
	}
	return out
}

// FTIRepairer adapts the engine to the checkpoint library's SDCCheck hook,
// repairing via the per-dataset policy recorded by fti.Protect.
func (e *Engine) FTIRepairer() fti.RepairFunc {
	return func(ds *fti.Dataset, off int) (float64, error) {
		t := target{arr: ds.Array, name: "fti:" + ds.Name,
			policy: registry.Policy{Any: ds.Policy.Any, Method: ds.Policy.Method}}
		out, err := e.recoverOne(context.Background(), &t, off)
		return out.New, err
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TuneCacheCounters returns tune-cache lifetime counters summed across
// every protected array (exported as spatialdue_tune_cache_*).
func (e *Engine) TuneCacheCounters() autotune.CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out autotune.CacheStats
	for _, st := range e.arrays {
		c := st.cache.Counters()
		out.Hits += c.Hits
		out.Misses += c.Misses
		out.Coalesced += c.Coalesced
		out.Expiries += c.Expiries
		out.Invalidations += c.Invalidations
		out.Corrections += c.Corrections
	}
	return out
}

// SpatialReport computes the spatial-autocorrelation report (Moran's I,
// Geary's C, per-stripe G* hot/cold spots) over arr's accumulated recovery
// outcomes; the empty report for an array the engine holds no record of.
func (e *Engine) SpatialReport(arr *ndarray.Array) spatial.Report {
	var sa *spatial.Analytics
	if st := e.liveState(arr); st != nil {
		sa = st.spatial
	}
	return sa.Report()
}

// outcomeKey indexes the memoized trace-outcome detail strings.
type outcomeKey struct {
	method predict.Method
	stage  Stage
}
