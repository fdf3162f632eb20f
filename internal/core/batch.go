package core

import (
	"context"
	"slices"
	"time"

	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// Batch recovery is the engine's fast path for storms of co-located DUEs on
// one array (a flaky DIMM, a row-hammered bank): instead of each event
// paying lock acquisition, environment setup, and shared-statistic access
// separately, a batch
//
//   - quarantines every member in one coalesced pass (one quarantine-set
//     lock, one shared-statistics exclusion sweep, both in submission
//     order),
//   - groups members into stripe clusters — members whose three-stripe lock
//     ranges overlap — and runs the clusters concurrently (their read/write
//     sets are provably disjoint; see stripes.go),
//   - shares one predict.Env (and its allocation-free scratch buffers) per
//     cluster, reseeding it per member, and
//   - reuses auto-tune decisions across members in the same tune-cache
//     block, since clustered members tune sequentially against the same
//     cache.
//
// Equivalence contract. For offsets that are already quarantined when the
// batch starts — which is how the service uses it: every ingested event is
// MarkCorrupt'ed at intake — RecoverBatch produces bit-identical array
// contents, outcomes, and method choices to recovering the same offsets
// sequentially with RecoverElement in submission order, under every engine
// option: the contract has no exception. Within a cluster, members run
// sequentially in submission order with pre-assigned deterministic seeds;
// across clusters, no recovery can observe another's writes, mask changes,
// or tune-cache entries, and the shared statistics are frozen for the
// duration (exclusions all happen up front; repaired cells are not
// re-admitted until FieldUpdated). For offsets NOT pre-quarantined the batch
// is deliberately not order-equivalent: it quarantines all members before
// recovering any, so early members never read later members' corrupt values
// — strictly safer than the sequential interleaving.
//
// Quarantine release stays per-member (not coalesced): a later member of a
// cluster must see its earlier neighbors already repaired and released,
// exactly as the sequential path would, or bit-identity breaks.
//
// BatchResult reports one member's outcome, indexed like the offsets slice
// passed to RecoverBatch.
type BatchResult struct {
	// Offset echoes the member's linear element offset.
	Offset int
	// Outcome is the completed recovery (zero when Err != nil).
	Outcome Outcome
	// Err is the member's failure, if any: the same errors (and error
	// wrapping) RecoverElementCtx would return for that offset.
	Err error
}

// batchSizeBuckets are the spatialdue_batch_size histogram bounds.
var batchSizeBuckets = [...]int{1, 2, 4, 8, 16, 32}

// observeBatch records one RecoverBatch call for the metrics endpoint.
func (e *Engine) observeBatch(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.batchCalls++
	e.batchMembers += int64(n)
	for bi, bound := range batchSizeBuckets {
		if n <= bound {
			e.batchBuckets[bi]++
		}
	}
}

// BatchStats reports lifetime batch accounting: calls, total members, and
// the cumulative size histogram (indexed like batchSizeBuckets).
func (e *Engine) BatchStats() (calls, members int64, buckets [len(batchSizeBuckets)]int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.batchCalls, e.batchMembers, e.batchBuckets
}

// RecoverBatch recovers every element in offsets (all inside alloc's array)
// and returns one result per member, in input order. Members in
// non-conflicting stripe clusters recover concurrently. The context governs
// the whole batch with RecoverElementCtx semantics: when it expires,
// unfinished members report ErrRecoveryAbandoned immediately while their
// cluster climbs keep running in the background, abort at the next
// cooperative checkpoint, and leave those elements quarantined (a climb
// that completes after abandonment is still counted and audited).
//
// traces, when given, are indexed like offsets. A missing (or nil) member
// makes the engine mint and finish its own trace for that member;
// caller-supplied traces are annotated but left unfinished, so the caller
// can append its own post-recovery spans (journal finish) before handing
// them to the collector. Members of one stripe cluster share the cluster's
// single lock acquisition, stamped into every member's trace as a
// stripe_wait span of identical duration.
func (e *Engine) RecoverBatch(ctx context.Context, alloc *registry.Allocation, offsets []int, traces ...*trace.Trace) []BatchResult {
	results := make([]BatchResult, len(offsets))
	for i, off := range offsets {
		results[i].Offset = off
	}
	if len(offsets) == 0 {
		return results
	}
	e.observeBatch(len(offsets))
	t := allocTarget(alloc)
	st := e.record(&t)

	// Mint traces and pre-assign deterministic seeds in submission order,
	// exactly as a sequential loop over RecoverElement would have drawn
	// them; settle the members that cannot climb (same error and
	// bookkeeping as the sequential path) and collect the rest.
	members := make([]member, len(offsets))
	valid := make([]int, 0, len(offsets))
	born := time.Now() // one birth instant shared by every owned member
	for i, off := range offsets {
		m := &members[i]
		m.i, m.off, m.seed = i, off, e.nextSeed()
		if i < len(traces) {
			m.tr = traces[i]
		}
		if m.tr == nil {
			m.tr, m.owned = trace.GetPooledAt(born), true
		}
		switch {
		case st == nil:
			e.finish(&t, nil, m, ladderResult{}, t.errUnprotected(), nil)
		case off < 0 || off >= t.arr.Len():
			e.finish(&t, st, m, ladderResult{}, errOutOfRange(off), nil)
		default:
			valid = append(valid, off)
		}
		results[i].Err = m.err
	}
	if len(valid) == 0 {
		return results
	}
	// One coalesced quarantine insert; then force the shared-statistics
	// build now, on this goroutine, so the O(N) snapshot scan is not
	// repeated (or raced for) inside the clusters.
	st.quarantineCells(valid...)
	st.shared.Prepare()

	// Cluster members by stripe-range connectivity: two members conflict iff
	// their three-stripe lock ranges overlap, i.e. their stripes are within
	// 2 of each other. starts holds the first stripe of each cluster, over
	// the sorted distinct stripes hit.
	hit := make([]int, len(valid))
	for i, off := range valid {
		hit[i] = st.stripeOf(off)
	}
	slices.Sort(hit)
	hit = slices.Compact(hit)
	var starts []int
	for i, s := range hit {
		if i == 0 || s-hit[i-1] > 2 {
			starts = append(starts, s)
		}
	}
	clusters := make([]cluster, len(starts))
	for i := range members {
		if m := &members[i]; m.err == nil {
			// The last cluster starting at or before the member's stripe.
			k, _ := slices.BinarySearch(starts, st.stripeOf(m.off)+1)
			c := &clusters[k-1]
			c.members = append(c.members, *m)
		}
	}
	e.run(ctx, &t, st, clusters, results)
	return results
}
