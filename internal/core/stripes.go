package core

import (
	"context"
	"sync/atomic"
	"time"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

// Lock striping replaces the single per-array recovery lock: the array is
// partitioned along dimension 0 into stripes at least as tall as the widest
// read neighborhood any recovery can touch, so recoveries whose stripes are
// far enough apart are provably independent and may run concurrently.
//
// The reach bound. Recovering the element at row r reads at most
//
//	K + predict.MaxStencilReach
//
// rows away from r: the auto-tuner probes healthy cells within Chebyshev
// distance K of the target, and every predictor evaluated at a probe (or at
// the target) reads at most MaxStencilReach further (verification reads
// Verify.Radius rows, which the same bound covers unless configured larger).
// With stripes at least that tall, an element in stripe s has its entire
// read/write set inside stripes s-1..s+1. Holding that range for the
// duration of the recovery therefore makes two recoveries either serialized
// (lock ranges overlap — stripes within 2 of each other) or fully
// independent: neither reads anything the other writes, including the
// quarantine mask queries, which only ever target offsets inside the read
// set. Array-wide state that both sides do read — the shared value range and
// global-regression moments — lives in predict.SharedStats, which reads an
// immutable snapshot and is frozen while recoveries run (exclusions happen
// at quarantine time, before the work fans out), so it neither races nor
// depends on scheduling.
//
// Full-array operations (field upload, burst recovery, WithArrayLock,
// shared-stats rebuild) take every stripe in ascending order; element
// recoveries take their three-stripe range in ascending order too, so lock
// acquisition is globally ordered and deadlock-free.

// stripeSet is the per-array stripe lock table.
type stripeSet struct {
	rows   int // dim-0 layers per stripe (the reach bound)
	rowLen int // elements per dim-0 layer
	n      int // number of stripes
	total  int // total elements (the last stripe absorbs the remainder)
	locks  []recLock

	// Contention accounting: total time spent acquiring stripe locks and
	// the number of acquisition spans (exported as
	// spatialdue_stripe_wait_seconds / ..._stripe_acquisitions_total).
	waitNanos    atomic.Int64
	acquisitions atomic.Int64
}

// stripeRowsFor computes the stripe height from the engine options: the
// auto-tune probe radius plus the widest predictor stencil, or the
// verification radius if someone configured it larger.
func stripeRowsFor(opts Options) int {
	rows := opts.Tune.K + predict.MaxStencilReach
	if r := opts.Verify.Radius; r > rows {
		rows = r
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func newStripeSet(arr *ndarray.Array, rows int) *stripeSet {
	dim0 := arr.Dim(0)
	n := dim0 / rows
	if n < 1 {
		n = 1
	}
	ss := &stripeSet{
		rows:   rows,
		rowLen: arr.Len() / dim0,
		n:      n,
		total:  arr.Len(),
		locks:  make([]recLock, n),
	}
	for i := range ss.locks {
		ss.locks[i] = newRecLock()
	}
	return ss
}

// stripeOf maps a linear element offset to its stripe. The final stripe
// absorbs the remainder rows, so it is the tallest, never the shortest.
func (ss *stripeSet) stripeOf(off int) int {
	s := off / ss.rowLen / ss.rows
	if s >= ss.n {
		s = ss.n - 1
	}
	return s
}

// rangeFor returns the stripe span an element recovery must hold: the
// element's stripe and its neighbors, clamped to the table.
func (ss *stripeSet) rangeFor(off int) (lo, hi int) {
	s := ss.stripeOf(off)
	lo, hi = s-1, s+1
	if lo < 0 {
		lo = 0
	}
	if hi >= ss.n {
		hi = ss.n - 1
	}
	return lo, hi
}

// acquireRange takes stripes lo..hi in ascending order, or releases
// everything and returns the context error if it expires mid-acquisition.
func (ss *stripeSet) acquireRange(ctx context.Context, lo, hi int) error {
	start := time.Now()
	for i := lo; i <= hi; i++ {
		if err := ss.locks[i].lock(ctx); err != nil {
			for j := lo; j < i; j++ {
				ss.locks[j].unlock()
			}
			ss.waitNanos.Add(time.Since(start).Nanoseconds())
			return err
		}
	}
	ss.waitNanos.Add(time.Since(start).Nanoseconds())
	ss.acquisitions.Add(1)
	return nil
}

// acquireRangeBlocking is acquireRange for non-context paths.
func (ss *stripeSet) acquireRangeBlocking(lo, hi int) {
	start := time.Now()
	for i := lo; i <= hi; i++ {
		ss.locks[i].lockBlocking()
	}
	ss.waitNanos.Add(time.Since(start).Nanoseconds())
	ss.acquisitions.Add(1)
}

// release drops stripes lo..hi (any order is safe; keep it simple).
func (ss *stripeSet) release(lo, hi int) {
	for i := lo; i <= hi; i++ {
		ss.locks[i].unlock()
	}
}

// acquireAllBlocking takes every stripe (full-array operations).
func (ss *stripeSet) acquireAllBlocking() { ss.acquireRangeBlocking(0, ss.n-1) }

// tryAcquireAll takes every stripe without blocking, backing out entirely if
// any stripe is held. Unprotect uses it to refuse teardown while recoveries
// are in flight instead of stalling the caller behind them.
func (ss *stripeSet) tryAcquireAll() bool {
	for i := range ss.locks {
		select {
		case ss.locks[i] <- struct{}{}:
		default:
			ss.release(0, i-1)
			return false
		}
	}
	ss.acquisitions.Add(1)
	return true
}

func (ss *stripeSet) releaseAll() { ss.release(0, ss.n-1) }

// stripeSpan returns the half-open element range [lo, hi) owned by stripe s.
// The last stripe runs to the end of the array (it absorbs the remainder
// rows, mirroring stripeOf's clamp).
func (ss *stripeSet) stripeSpan(s int) (lo, hi int) {
	lo = s * ss.rows * ss.rowLen
	if s == ss.n-1 {
		return lo, ss.total
	}
	return lo, (s + 1) * ss.rows * ss.rowLen
}

// ForEachStripeLocked calls f once per stripe with that stripe's element
// range [lo, hi), holding ONLY that stripe's lock during the call. This is
// the streaming-I/O primitive behind chunked field upload/download: an
// element in stripe t is only ever recovered under locks t-1..t+1, and its
// whole read/write set lies inside those stripes, so any recovery touching
// stripe s's data necessarily holds lock s — holding lock s alone therefore
// gives exclusive ownership of stripe s's elements. Iteration is ascending
// and single-lock, so it composes deadlock-free with the globally ordered
// range acquisitions. f must not block on external I/O while called (stage
// through a scratch buffer instead); a non-nil error stops the walk and is
// returned.
func (e *Engine) ForEachStripeLocked(arr *ndarray.Array, f func(lo, hi int) error) error {
	ss := e.stripesFor(arr)
	for s := 0; s < ss.n; s++ {
		ss.acquireRangeBlocking(s, s)
		lo, hi := ss.stripeSpan(s)
		err := f(lo, hi)
		ss.release(s, s)
		if err != nil {
			return err
		}
	}
	return nil
}

// NumStripes returns the number of lock stripes of an array. Together with
// StripeSpan and WithStripeLock it lets callers interleave external I/O with
// stripe-exclusive access (stage into a scratch buffer outside the lock,
// memcpy inside it) — the pattern the streaming field handlers use, since
// ForEachStripeLocked forbids blocking I/O inside the callback.
func (e *Engine) NumStripes(arr *ndarray.Array) int { return e.stripesFor(arr).n }

// StripeSpan returns the half-open element range [lo, hi) owned by stripe s.
func (e *Engine) StripeSpan(arr *ndarray.Array, s int) (lo, hi int) {
	return e.stripesFor(arr).stripeSpan(s)
}

// WithStripeLock runs f holding exactly stripe s's lock, which by the
// ownership argument above grants exclusive access to the elements in
// StripeSpan(arr, s). f must not block on external I/O.
func (e *Engine) WithStripeLock(arr *ndarray.Array, s int, f func()) {
	ss := e.stripesFor(arr)
	ss.acquireRangeBlocking(s, s)
	defer ss.release(s, s)
	f()
}

// stripesFor returns (creating on demand) the stripe table of an array.
func (e *Engine) stripesFor(arr *ndarray.Array) *stripeSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stripes == nil {
		e.stripes = map[*ndarray.Array]*stripeSet{}
	}
	ss, ok := e.stripes[arr]
	if !ok {
		ss = newStripeSet(arr, stripeRowsFor(e.opts))
		e.stripes[arr] = ss
	}
	return ss
}

// sharedFor returns (creating on demand) the shared statistics of an array.
// Creation snapshots the array's current values, so it must happen while
// they are trustworthy — at registration, before faults land (Protect calls
// this eagerly).
func (e *Engine) sharedFor(arr *ndarray.Array) *predict.SharedStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.shared == nil {
		e.shared = map[*ndarray.Array]*predict.SharedStats{}
	}
	s, ok := e.shared[arr]
	if !ok {
		s = predict.NewSharedStats(arr)
		e.shared[arr] = s
	}
	return s
}

// envFor builds the prediction environment every engine recovery path uses:
// live quarantine mask plus the array's shared statistics. One Env serves
// one goroutine; batch clusters share one Env across members and Reseed it
// per member.
func (e *Engine) envFor(arr *ndarray.Array, seed int64) *predict.Env {
	env := predict.NewEnv(arr, seed)
	env.SetMaskSource(e.quarantine.view(arr))
	env.SetShared(e.sharedFor(arr))
	return env
}

// nextSeed allocates the next deterministic recovery seed. Batch recovery
// pre-assigns seeds to members in submission order, so a batched member
// draws exactly the randoms it would have drawn recovered sequentially.
func (e *Engine) nextSeed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	return e.opts.Seed ^ e.seq
}

// markQuarantined quarantines one offset and excludes it from the array's
// shared statistics (subtracting its snapshot contribution). Every
// quarantine insertion in the engine goes through here so the two sets
// never drift apart.
func (e *Engine) markQuarantined(arr *ndarray.Array, off int) {
	e.quarantine.add(arr, off)
	e.sharedFor(arr).Exclude(off)
}

// markQuarantinedAll is the coalesced form: one pass over the quarantine
// set and one pass over the shared statistics, in submission order.
func (e *Engine) markQuarantinedAll(arr *ndarray.Array, offs []int) {
	e.quarantine.addAll(arr, offs)
	e.sharedFor(arr).Exclude(offs...)
}

// FieldUpdated tells the engine the array's contents were replaced
// wholesale (e.g. a new field upload): under all stripe locks it
// re-snapshots the shared statistics — re-admitting previously repaired
// cells, keeping still-quarantined ones excluded — and drops the array's
// cached tuning decisions in the same pass. Call it after the mutation,
// outside WithArrayLock (it takes the stripes itself).
func (e *Engine) FieldUpdated(arr *ndarray.Array) {
	ss := e.stripesFor(arr)
	ss.acquireAllBlocking()
	defer ss.releaseAll()
	e.sharedFor(arr).Rebuild(e.quarantine.offsets(arr))
	e.InvalidateTuneCache(arr)
}

// FieldUpdatedStripes is FieldUpdated for a partial mutation: the caller
// committed only the listed stripes (the streaming upload path reports
// exactly which). The shared statistics are re-snapshotted wholesale — they
// are array-wide aggregates and any committed stripe shifts them — but
// cached tuning decisions are dropped only for regions whose tuning
// neighborhood overlaps a committed stripe: the stripe itself plus one on
// each side, since a region's tune reads at most one stripe away (the same
// reach bound the lock striping is built on). Everything further keeps its
// cached decision. Spatial analytics survive both variants: error history
// is a property of the memory underneath, not of the field contents.
func (e *Engine) FieldUpdatedStripes(arr *ndarray.Array, stripes []int) {
	ss := e.stripesFor(arr)
	ss.acquireAllBlocking()
	defer ss.releaseAll()
	e.sharedFor(arr).Rebuild(e.quarantine.offsets(arr))
	seen := make(map[int]bool, 3*len(stripes))
	regions := make([]int, 0, 3*len(stripes))
	for _, s := range stripes {
		for r := s - 1; r <= s+1; r++ {
			if r >= 0 && r < ss.n && !seen[r] {
				seen[r] = true
				regions = append(regions, r)
			}
		}
	}
	e.mu.Lock()
	c := e.caches[arr]
	e.mu.Unlock()
	if c != nil {
		c.InvalidateRegions(regions)
	}
}

// StripeWait reports the cumulative time spent acquiring stripe locks and
// the number of acquisition spans, across every protected array.
func (e *Engine) StripeWait() (wait time.Duration, acquisitions int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ns int64
	for _, ss := range e.stripes {
		ns += ss.waitNanos.Load()
		acquisitions += ss.acquisitions.Load()
	}
	return time.Duration(ns), acquisitions
}
