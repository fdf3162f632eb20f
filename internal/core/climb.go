package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/trace"
)

// Every recovery — one element, a batch, a burst's leftovers, a
// checkpoint-library repair — is one pipeline: take the stripes covering the
// read/write set, build one prediction environment, climb the escalation
// ladder, do the bookkeeping. climb is its only implementation; the entry
// points differ in what they repair (a target) and which elements (clusters).

// target is what a climb repairs: an array under a recovery policy, and the
// names the audit trail, traces and StageHook report it under.
type target struct {
	arr    *ndarray.Array
	policy registry.Policy
	name   string
	tenant string
	alloc  *registry.Allocation // nil for checkpoint-library datasets
}

func allocTarget(alloc *registry.Allocation) target {
	return target{arr: alloc.Array, policy: alloc.Policy, name: alloc.Name, tenant: alloc.Tenant, alloc: alloc}
}

// record returns t's live per-array record. A registered allocation got its
// from Protect, so a missing one means Unprotect retired it: nil, and the
// recovery is refused. Checkpoint-library datasets get theirs on first use.
func (e *Engine) record(t *target) *arrayState {
	if t.alloc != nil {
		return e.liveState(t.arr)
	}
	return e.stateFor(t.arr)
}

// errUnprotected refuses a recovery whose array no longer has a record.
func (t *target) errUnprotected() error {
	return fmt.Errorf("%w: %s was unprotected: %w", ErrCheckpointRestartRequired, t.name, registry.ErrNotRegistered)
}

func errOutOfRange(off int) error {
	return fmt.Errorf("%w: offset %d out of range", ErrCheckpointRestartRequired, off)
}

// member is one element of a cluster.
type member struct {
	i    int   // position in the caller's offsets (batches)
	off  int   // linear element offset
	seed int64 // pre-assigned in submission order; see nextSeed
	// tr is the member's trace (nil: untraced). The engine finishes and
	// recycles the traces it minted itself (owned); a caller-supplied trace
	// is annotated but left open for the caller's own closing spans.
	tr    *trace.Trace
	owned bool
	// burst marks a burst cell and old is its value before the burst: the
	// audit trail reports that as Old, not the estimate a failed sweep left.
	burst bool
	old   float64
	out   Outcome // the finished recovery, set by finish
	err   error
}

// cluster is a set of members recovered sequentially under one stripe-range
// acquisition and one prediction environment.
type cluster struct {
	members []member
	held    bool // the caller holds every stripe of the live record (burst)
}

// recoverOne recovers a cluster of one: RecoverElementCtx and FTI repairs.
func (e *Engine) recoverOne(ctx context.Context, t *target, off int) (Outcome, error) {
	// A context-carried trace (the service path) is finished by its owner
	// after journal completion; otherwise the engine mints and finishes one
	// itself, so direct RecoverElement calls feed the histograms too.
	tr, external := trace.FromContext(ctx)
	if !external {
		tr = trace.GetPooled()
	}
	m := [1]member{{off: off, seed: e.nextSeed(), tr: tr, owned: !external}}
	if ctx.Done() != nil {
		// Cancelable: the climb runs behind the collector and may outlive
		// this call, so it gets its own copies, in one heap object (which
		// also keeps the inline path's target and member on the stack).
		own := &struct {
			t target
			c [1]cluster
			m [1]member
		}{t: *t, m: m}
		own.c[0].members = own.m[:]
		res := [1]BatchResult{{Offset: off}}
		e.run(ctx, &own.t, e.record(t), own.c[:], res[:])
		return res[0].Outcome, res[0].Err
	}
	// An engine-minted trace was just born; its birth instant doubles as the
	// stripe-wait origin, saving a clock read on the hot path.
	t0 := tr.Born()
	if external {
		t0 = time.Now()
	}
	e.climb(ctx, t, e.record(t), &cluster{members: m[:]}, t0, nil)
	return m[0].out, m[0].err
}

// run climbs the clusters — inline when there is one and ctx cannot expire,
// otherwise one goroutine each — and copies every member's result into
// results[member.i] as it arrives. When ctx expires first, run returns at
// once with ErrRecoveryAbandoned for the members still outstanding; their
// climbs keep running in the background, abort at the next cooperative
// checkpoint and leave those elements quarantined (a climb that completes
// after abandonment is still counted and audited).
func (e *Engine) run(ctx context.Context, t *target, st *arrayState, clusters []cluster, results []BatchResult) {
	pending := 0
	for _, c := range clusters {
		for j := range c.members {
			results[c.members[j].i].Err = errPending
		}
		pending += len(c.members)
	}
	// Buffered so background climbs finishing after abandonment never block
	// on a collector that has already returned.
	done := make(chan member, pending)
	if len(clusters) == 1 && ctx.Done() == nil {
		e.climb(ctx, t, st, &clusters[0], time.Now(), done)
	} else {
		for i := range clusters {
			go e.climb(ctx, t, st, &clusters[i], time.Now(), done)
		}
	}
	for ; pending > 0; pending-- {
		select {
		case m := <-done:
			results[m.i].Outcome, results[m.i].Err = m.out, m.err
		case <-ctx.Done():
			for i := range results {
				if results[i].Err == errPending {
					results[i].Err = fmt.Errorf("%w: %s[%d]: %v", ErrRecoveryAbandoned, t.name, results[i].Offset, ctx.Err())
				}
			}
			return
		}
	}
}

// errPending marks, inside run only, the results still owed by a climb.
var errPending = errors.New("core: recovery pending")

// climb recovers one cluster on the calling goroutine: stripe locks (unless
// the caller holds them), one Env reseeded per member, the ladder, and
// finish for every member, in order. st is the target's record as the caller
// resolved it; nil refuses every member. t0 is when the wait for the stripes
// began: the one acquisition is stamped into every member's trace as a
// stripe_wait span of identical duration — the wait they shared. done, when
// set, receives a copy of each member as it finishes.
func (e *Engine) climb(ctx context.Context, t *target, st *arrayState, c *cluster, t0 time.Time, done chan<- member) {
	clk := t0
	if !c.held {
		var err error
		lo, hi := 0, 0
		if st != nil {
			// The span covering every member's read/write set; an offset
			// outside the array spans the whole table (reconstruct rejects
			// it under the locks).
			lo, hi = st.n-1, 0
			for i := range c.members {
				l, h := 0, st.n-1
				if off := c.members[i].off; off >= 0 && off < st.total {
					l, h = st.rangeFor(off)
				}
				lo, hi = min(lo, l), max(hi, h)
			}
			st, err = e.acquire(ctx, t.arr, st, lo, hi)
		}
		clk = time.Now()
		for i := range c.members {
			m := &c.members[i]
			m.tr.ObserveDur(trace.StageStripeWait, t0, clk.Sub(t0))
			if st == nil {
				e.finish(t, nil, m, ladderResult{}, t.errUnprotected(), done)
			} else if err != nil {
				e.finish(t, st, m, ladderResult{}, fmt.Errorf("%w: %s[%d]: waiting for recovery lock: %v",
					ErrRecoveryAbandoned, t.name, m.off, err), done)
			}
		}
		if st == nil || err != nil {
			return
		}
		defer st.release(lo, hi)
	}
	// One Env for the whole cluster: the mask is live, the shared statistics
	// are frozen, and the scratch buffers amortize across members. It is born
	// with the first member's seed (seeding costs more than the rest of a
	// fixed-method climb); later members reseed it to their private random
	// stream.
	env := e.envFor(t.arr, st, c.members[0].seed)
	for n := range c.members {
		m := &c.members[n]
		if n > 0 {
			clk = time.Now()
			env.Reseed(m.seed)
		}
		res, err := e.reconstruct(ctx, t, st, m, env, clk)
		e.finish(t, st, m, res, err, done)
	}
}

// finish is the bookkeeping every recovery ends with: counters, per-method
// counts, spatial accumulators, audit trail, trace annotation (and end of
// life, for traces the engine minted), and the member's result.
func (e *Engine) finish(t *target, st *arrayState, m *member, res ladderResult, err error, done chan<- member) {
	if m.burst {
		res.old = m.old
	}
	if err != nil {
		m.err = err
		m.tr.SetResult(t.name, t.tenant, m.off, false, err.Error())
		e.mu.Lock()
		e.stats.Fallbacks++
		e.mu.Unlock()
		if errors.Is(err, ErrCheckpointRestartRequired) {
			st.recordSpatial(m.off, res, false)
		}
		e.audit.record(AuditEntry{Alloc: t.name, Offset: m.off, Err: err.Error()})
	} else {
		m.out = Outcome{
			Allocation: t.alloc, Offset: m.off, Method: res.method, Tuned: res.tuned,
			Stage: res.stage, Old: res.old, New: res.value,
		}
		st.recordSpatial(m.off, res, true)
		e.mu.Lock()
		e.stats.Recovered++
		if res.tuned {
			e.stats.Tuned++
		}
		e.byMethod[res.method]++
		// Outcome details are drawn from a tiny method x stage set; memoizing
		// them keeps fmt.Sprintf off the recovery hot path.
		detail, ok := e.outcomes[outcomeKey{res.method, res.stage}]
		if !ok {
			detail = fmt.Sprintf("method=%v stage=%v", res.method, res.stage)
			e.outcomes[outcomeKey{res.method, res.stage}] = detail
		}
		e.mu.Unlock()
		m.tr.SetResult(t.name, t.tenant, m.off, true, detail)
		e.audit.record(AuditEntry{
			Alloc: t.name, Offset: m.off, Method: res.method, Tuned: res.tuned,
			Stage: res.stage, Old: res.old, New: res.value, OK: true,
		})
	}
	if m.owned {
		e.tracer.Finish(m.tr)
		trace.Recycle(m.tr)
	}
	if done != nil {
		done <- *m
	}
}

// frontierHealthy counts the healthy (in-bounds, unquarantined) face
// neighbors of the element at off — the ordering key of the burst seed pass.
func frontierHealthy(env *predict.Env, arr *ndarray.Array, off int) int {
	n := 0
	faceNeighbors(arr, off, func(noff int) {
		if !env.Masked(noff) {
			n++
		}
	})
	return n
}

// faceNeighbors calls fn with the offset of each in-bounds face neighbor of
// the element at off (0 <= off < arr.Len()): dimension by dimension, the
// lower neighbor first. It allocates nothing.
func faceNeighbors(arr *ndarray.Array, off int, fn func(noff int)) {
	rem := off
	for d := 0; d < arr.NumDims(); d++ {
		s := arr.Stride(d)
		i := rem / s
		rem -= i * s
		if i > 0 {
			fn(off - s)
		}
		if i < arr.Dim(d)-1 {
			fn(off + s)
		}
	}
}
