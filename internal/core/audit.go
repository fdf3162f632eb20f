package core

import (
	"fmt"
	"io"
	"sync"

	"spatialdue/internal/metrics"
	"spatialdue/internal/predict"
)

// Production resilience layers keep an audit trail: which addresses failed,
// what was reconstructed, with which method. The engine records every
// recovery in a fixed-size ring buffer (no allocation growth in long runs)
// and can export counters in the Prometheus text exposition format, so a
// job's recovery activity is observable without attaching a debugger.

// auditCap is the ring-buffer capacity.
const auditCap = 1024

// AuditEntry is one recorded recovery (or fallback).
type AuditEntry struct {
	// Seq is a monotonically increasing sequence number.
	Seq int64
	// Alloc names the allocation ("" for direct FTI repairs or failed
	// lookups).
	Alloc string
	// Offset is the repaired element (-1 for failed lookups).
	Offset int
	// Method is the reconstruction method (meaningful when OK).
	Method predict.Method
	// Tuned marks RECOVER_ANY recoveries.
	Tuned bool
	// Stage is the escalation-ladder rung that produced the value (for OK
	// entries; StagePrimary for ordinary one-shot recoveries).
	Stage Stage
	// Old and New are the values before/after.
	Old, New float64
	// OK is false for checkpoint-restart fallbacks.
	OK bool
	// Err records the failure cause on fallback entries ("" when OK).
	Err string
}

// String implements fmt.Stringer.
func (e AuditEntry) String() string {
	if !e.OK {
		if e.Err != "" {
			return fmt.Sprintf("#%d %s[%d]: FALLBACK (%s)", e.Seq, e.Alloc, e.Offset, e.Err)
		}
		return fmt.Sprintf("#%d %s[%d]: FALLBACK", e.Seq, e.Alloc, e.Offset)
	}
	tag := ""
	if e.Tuned {
		tag = " (tuned)"
	}
	if e.Stage != StagePrimary {
		tag += fmt.Sprintf(" [stage=%v]", e.Stage)
	}
	return fmt.Sprintf("#%d %s[%d]: %v%s %.6g -> %.6g", e.Seq, e.Alloc, e.Offset, e.Method, tag, e.Old, e.New)
}

// auditLog is the engine's ring buffer.
type auditLog struct {
	mu      sync.Mutex
	entries [auditCap]AuditEntry
	next    int64 // total entries ever recorded
}

func (l *auditLog) record(e AuditEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Seq = l.next
	l.entries[l.next%auditCap] = e
	l.next++
}

// snapshot returns the retained entries, oldest first.
func (l *auditLog) snapshot() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if n > auditCap {
		out := make([]AuditEntry, auditCap)
		start := n % auditCap
		copy(out, l.entries[start:])
		copy(out[auditCap-start:], l.entries[:start])
		return out
	}
	return append([]AuditEntry(nil), l.entries[:n]...)
}

// Audit returns the retained recovery log, oldest first (at most the last
// 1024 events).
func (e *Engine) Audit() []AuditEntry { return e.audit.snapshot() }

// WriteMetrics exports the engine counters in the Prometheus text format.
func (e *Engine) WriteMetrics(w io.Writer) error {
	st := e.Stats()
	mw := metrics.NewWriter(w)
	mw.Counter("spatialdue_recovered_total", "Elements recovered in place.", st.Recovered)
	mw.Counter("spatialdue_tuned_total", "Recoveries that used RECOVER_ANY auto-tuning.", st.Tuned)
	mw.Counter("spatialdue_fallbacks_total", "Checkpoint-restart fallbacks.", st.Fallbacks)
	mw.Family("spatialdue_escalations_total", "Recovery-ladder stage entries per stage.", metrics.Counter)
	esc := e.Escalations()
	for s := Stage(0); s < numStages; s++ {
		mw.Sample(esc[s], "stage", s.String())
	}
	mw.Gauge("spatialdue_quarantined", "Elements currently quarantined (corrupt, unrepaired).", e.QuarantineCount())
	wait, acq := e.StripeWait()
	mw.Counter("spatialdue_stripe_wait_seconds", "Cumulative time spent acquiring region-stripe recovery locks.", wait.Seconds())
	mw.Counter("spatialdue_stripe_acquisitions_total", "Stripe lock-range acquisitions.", acq)
	calls, members, buckets := e.BatchStats()
	bounds, cumulative := make([]float64, len(buckets)), make([]uint64, len(buckets))
	for i, n := range buckets {
		bounds[i], cumulative[i] = float64(batchSizeBuckets[i]), uint64(n)
	}
	mw.Family("spatialdue_batch_size", "RecoverBatch sizes (members per call).", metrics.Histogram)
	mw.Histogram(bounds, cumulative, members, uint64(calls))
	verifies, repairs, refusals := e.table.DescriptorStats()
	mw.Counter("spatialdue_descriptor_verifies_total", "Allocation-descriptor parity verifications.", verifies)
	mw.Counter("spatialdue_descriptor_repairs_total", "Descriptors reconstructed from parity after corruption.", repairs)
	mw.Counter("spatialdue_descriptor_refusals_total", "Descriptor lookups refused as corrupt beyond parity.", refusals)
	tc := e.TuneCacheCounters()
	mw.Counter("spatialdue_tune_cache_hits_total", "Tune-cache hits (cached decision served, tuner skipped; includes coalesced waits).", tc.Hits+tc.Coalesced)
	mw.Counter("spatialdue_tune_cache_misses_total", "Tune-cache misses (tuner runs).", tc.Misses)
	mw.Counter("spatialdue_tune_cache_invalidations_total", "Cached tuning decisions dropped by full or stripe-granular invalidation.", tc.Invalidations)
	mw.Counter("spatialdue_tune_cache_expiries_total", "Hot-spot TTL expiries (cached decision aged out by uses).", tc.Expiries)
	mw.Counter("spatialdue_tune_cache_corrections_total", "Cached decisions replaced after a verification failure exposed them as stale.", tc.Corrections)
	if allocs := e.table.Allocations(); len(allocs) > 0 {
		mw.Family("spatialdue_spatial_moran_i", "Global Moran's I over per-stripe recovery-error intensity (0 when undefined).", metrics.Gauge)
		for _, a := range allocs {
			if rep := e.SpatialReport(a.Array); rep.Recoveries > 0 {
				mw.Sample(rep.MoranI, "alloc", a.QualifiedName())
			}
		}
	}
	// Lifetime per-method counters, NOT a recount of the bounded audit ring:
	// a ring-derived value decreases as old entries rotate out, which breaks
	// the Prometheus counter contract (rate() over a decreasing series
	// silently yields garbage).
	if byMethod := e.MethodCounts(); len(byMethod) > 0 {
		mw.Family("spatialdue_recoveries_by_method", "Lifetime successful recoveries per method.", metrics.Counter)
		for _, m := range predict.HeadlineMethods() {
			if n := byMethod[m]; n > 0 {
				mw.Sample(n, "method", m.String())
			}
		}
	}
	_ = e.tracer.WriteMetrics(mw) // its write errors are mw's
	return mw.Err()
}
