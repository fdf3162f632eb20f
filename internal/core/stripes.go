package core

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"spatialdue/internal/autotune"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/spatial"
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
// verifyRadius rows, which the same bound covers).
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

// The stripe height above covers the verification neighborhood too.
const _ = uint(predict.MaxStencilReach - verifyRadius)

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

// release drops stripes lo..hi (any order is safe; keep it simple).
func (ss *stripeSet) release(lo, hi int) {
	for i := lo; i <= hi; i++ {
		ss.locks[i].unlock()
	}
}

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

// NumStripes returns the number of lock stripes of an array. Together with
// StripeSpan and WithStripeLock it lets callers interleave external I/O with
// stripe-exclusive access (stage into a scratch buffer outside the lock,
// memcpy inside it) — the pattern the field codec uses for uploads,
// downloads and replication.
func (e *Engine) NumStripes(arr *ndarray.Array) int { return e.stateFor(arr).n }

// StripeSpan returns the half-open element range [lo, hi) owned by stripe s.
func (e *Engine) StripeSpan(arr *ndarray.Array, s int) (lo, hi int) {
	return e.stateFor(arr).stripeSpan(s)
}

// StripeOf returns the stripe that owns element off of arr: with
// WithStripeLock, the one lock a single-cell write needs.
func (e *Engine) StripeOf(arr *ndarray.Array, off int) int { return e.stateFor(arr).stripeOf(off) }

// WithStripeLock runs f holding exactly stripe s's lock, which grants
// exclusive access to the elements in StripeSpan(arr, s): an element in
// stripe t is only ever recovered under locks t-1..t+1, and its whole
// read/write set lies inside those stripes, so any recovery touching stripe
// s's data necessarily holds lock s. One lock at a time composes
// deadlock-free with the globally ordered range acquisitions. f must not
// block on external I/O.
func (e *Engine) WithStripeLock(arr *ndarray.Array, s int, f func()) {
	st := e.lock(arr, s, s)
	defer st.release(s, s)
	f()
}

// arrayState is the engine's one record per array: the stripe locks and what
// they guard, created together (by Protect, or on first use for arrays the
// engine never registered) and retired together (by Unprotect). A recovery
// resolves it once.
type arrayState struct {
	stripeSet
	quarantine quarantine // see quarantine.go
	// shared snapshots the array when the record is created, so that must
	// happen while the values are trustworthy: at registration, before
	// faults land.
	shared  *predict.SharedStats
	spatial *spatial.Analytics // recovery outcomes per stripe
	cache   *autotune.Cache    // RECOVER_ANY decisions per stripe (consulted only under Options.TuneCacheBlock)
}

// liveState returns arr's record, or nil when it has none.
func (e *Engine) liveState(arr *ndarray.Array) *arrayState {
	e.mu.Lock()
	st := e.arrays[arr]
	e.mu.Unlock()
	return st
}

// stateFor returns arr's record, creating it if need be.
func (e *Engine) stateFor(arr *ndarray.Array) *arrayState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.arrays[arr]
	if st == nil {
		rows := e.opts.Tune.K + predict.MaxStencilReach // the reach bound
		n := max(1, arr.Dim(0)/rows)
		st = &arrayState{
			stripeSet: stripeSet{rows: rows, rowLen: arr.Len() / arr.Dim(0), n: n, total: arr.Len(), locks: make([]recLock, n)},
			shared:    predict.NewSharedStats(arr),
			spatial:   spatial.New(n, spatial.DefaultHotZ),
		}
		for i := range st.locks {
			st.locks[i] = newRecLock()
		}
		st.quarantine.init(arr.Len())
		st.cache = st.newTuneCache()
		e.arrays[arr] = st
	}
	return st
}

// newTuneCache builds the record's tuning cache. Cache regions ARE the
// array's lock stripes: corruptions in one stripe are always serialized
// (element recovery holds stripes s-1..s+1), so cached decisions never
// depend on scheduling, and a streaming upload's stripe-granular
// invalidation maps one-to-one onto cache regions. The per-region policy
// closes the analytics feedback loop — hot-spot stripes get a short
// uses-counted TTL, a widened re-tune K, and a bias toward the stripe's
// historically best method, while smooth stripes keep their decision until
// invalidated.
func (st *arrayState) newTuneCache() *autotune.Cache {
	c := autotune.NewCache(st.rows)
	c.SetRegionFunc(func(idx []int) int {
		if len(idx) == 0 {
			return 0
		}
		return min(max(idx[0]/st.rows, 0), st.n-1)
	})
	c.SetPolicyFunc(func(region int) autotune.Policy {
		if st.spatial.Heat(region) != spatial.HeatHot {
			return autotune.Policy{}
		}
		p := autotune.Policy{TTLUses: hotTuneTTL, WidenK: hotWidenK}
		if m, ok := st.spatial.BestMethod(region); ok {
			p.Bias, p.BiasOK = m, true
		}
		return p
	})
	return c
}

// acquire takes stripes lo..hi of st, arr's record as the caller resolved
// it, then confirms under e.mu that st is still the live one. Unprotect
// needs every stripe before it retires a record, so whoever holds stripes of
// the live record keeps it; whoever finds its record retired has locked
// nothing anyone else honours and has not touched the array yet. It lets go
// and tries the record that replaced it (a re-registration; same geometry,
// the stripe height being a function of the options alone). A nil record
// back means there is none: the array was unprotected.
func (e *Engine) acquire(ctx context.Context, arr *ndarray.Array, st *arrayState, lo, hi int) (*arrayState, error) {
	for st != nil {
		if err := st.acquireRange(ctx, lo, hi); err != nil {
			return st, err
		}
		live := e.liveState(arr)
		if live == st {
			break
		}
		st.release(lo, hi)
		st = live
	}
	return st, nil
}

// lock takes stripes lo..hi of arr's live record, creating the record if
// need be: external mutators may bring arrays the engine has not seen.
func (e *Engine) lock(arr *ndarray.Array, lo, hi int) *arrayState {
	for {
		if st, _ := e.acquire(context.Background(), arr, e.stateFor(arr), lo, hi); st != nil {
			return st
		}
	}
}

// lockAll takes every stripe of arr (full-array operations).
func (e *Engine) lockAll(arr *ndarray.Array) *arrayState {
	return e.lock(arr, 0, e.NumStripes(arr)-1)
}

// envFor builds the prediction environment every recovery uses: live
// quarantine mask plus the array's shared statistics. One Env serves one
// goroutine; a cluster shares one across members, reseeding per member.
func (e *Engine) envFor(arr *ndarray.Array, st *arrayState, seed int64) *predict.Env {
	env := predict.NewEnv(arr, seed)
	env.SetMaskSource(&st.quarantine)
	env.SetShared(st.shared)
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

// quarantineCells quarantines offs and excludes them from the array's
// shared statistics (subtracting their snapshot contributions), in order.
// Every quarantine insertion goes through here so the two sets never drift.
func (st *arrayState) quarantineCells(offs ...int) {
	for _, off := range offs {
		st.quarantine.add(off)
	}
	st.shared.Exclude(offs...)
}

// recordSpatial deposits one finished ladder climb into the array's
// per-stripe spatial accumulators. ok=false is a ladder exhaustion; lock
// timeouts and abandoned climbs are NOT recorded (they carry scheduling
// signal, not spatial signal, and recording them would make the analytics
// depend on replay timing). A nil record (a refused recovery) records
// nothing.
func (st *arrayState) recordSpatial(off int, res ladderResult, ok bool) {
	if st == nil || off < 0 || off >= st.total {
		return
	}
	if ok {
		st.spatial.Accumulate(st.stripeOf(off), res.residual, res.verifyFails, int(res.stage), res.method, true)
	} else {
		st.spatial.Accumulate(st.stripeOf(off), math.NaN(), res.verifyFails, int(StageExhausted), 0, false)
	}
}

// FieldUpdated tells the engine the array's contents were replaced
// wholesale (e.g. a new field upload): under all stripe locks it
// re-snapshots the shared statistics — re-admitting previously repaired
// cells, keeping still-quarantined ones excluded — and drops the array's
// cached tuning decisions in the same pass. Call it after the mutation,
// outside WithArrayLock (it takes the stripes itself).
func (e *Engine) FieldUpdated(arr *ndarray.Array) {
	all := make([]int, e.NumStripes(arr))
	for s := range all {
		all[s] = s
	}
	e.FieldUpdatedStripes(arr, all)
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
	st := e.lockAll(arr)
	defer st.releaseAll()
	st.shared.Rebuild(st.quarantine.offsets())
	seen := make(map[int]bool, 3*len(stripes))
	regions := make([]int, 0, 3*len(stripes))
	for _, s := range stripes {
		for r := s - 1; r <= s+1; r++ {
			if r >= 0 && r < st.n && !seen[r] {
				seen[r] = true
				regions = append(regions, r)
			}
		}
	}
	st.cache.InvalidateRegions(regions)
}

// StripeWait reports the cumulative time spent acquiring stripe locks and
// the number of acquisition spans, across every protected array.
func (e *Engine) StripeWait() (wait time.Duration, acquisitions int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ns int64
	for _, st := range e.arrays {
		ns += st.waitNanos.Load()
		acquisitions += st.acquisitions.Load()
	}
	return time.Duration(ns), acquisitions
}
