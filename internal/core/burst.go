package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"spatialdue/internal/autotune"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// Burst recovery extends the paper beyond its stated limitation ("this
// paper is limited to the corruption of a single element", Section 3.1).
// Real DUEs often take out a whole cache line or DRAM burst — e.g. 16
// consecutive float32 elements — so the engine also supports reconstructing
// a *set* of corrupted elements:
//
//  1. Quarantine: every burst offset is quarantined up front, so no stencil
//     or probe on the array reads a still-garbage cell — including cells
//     quarantined before the burst by MarkCorrupt (secondary faults).
//  2. Seed pass: corrupted cells are filled in BFS order of "most healthy
//     face neighbors first", each from the average of its currently
//     trustworthy neighbors, so every cell starts from a sane estimate even
//     in the middle of the burst. A seeded cell re-enters stencils.
//  3. Refinement sweeps: each corrupted cell is re-predicted with the
//     allocation's recovery method (auto-tuned once for RECOVER_ANY),
//     Gauss-Seidel style, until the update drops below a relative tolerance
//     or a sweep cap is reached.
//  4. Verification: each refined value must pass the plausibility check of
//     verify.go. Verified cells leave quarantine; failures stay quarantined
//     and climb the single-element escalation ladder individually.
//
// On smooth data this converges in a few sweeps and approaches
// single-element accuracy; on rough data it degrades gracefully toward the
// seed estimate, with the ladder catching anything implausible.

// BurstOutcome reports a completed multi-element recovery.
type BurstOutcome struct {
	// Method is the reconstruction method used in refinement sweeps.
	Method predict.Method
	// Tuned is true when the method came from RECOVER_ANY auto-tuning.
	Tuned bool
	// Sweeps is the number of refinement sweeps performed.
	Sweeps int
	// Escalated counts elements whose refined value failed verification and
	// had to climb the escalation ladder individually.
	Escalated int
	// Old and New hold the values before/after recovery, indexed like the
	// offsets passed to RecoverBurst.
	Old, New []float64
}

// burstMaxSweeps caps Gauss-Seidel refinement.
const burstMaxSweeps = 12

// burstTol is the relative-change convergence threshold between sweeps.
const burstTol = 1e-7

// RecoverBurst reconstructs every element in offsets (all inside alloc's
// array) in place. Offsets may arrive unsorted and may contain duplicates —
// merged fault reports (a row wipe spanning two cache lines, or two
// detectors flagging the same line) overlap routinely, and refusing them
// would turn a survivable burst into a checkpoint restart. The set is
// deduplicated and sorted internally; Old/New in the outcome stay indexed
// like the offsets passed in (duplicates see the same values). On partial
// failure the returned outcome is still populated and the error reports how
// many elements remain quarantined.
func (e *Engine) RecoverBurst(alloc *registry.Allocation, offsets []int) (BurstOutcome, error) {
	// The seed pass and the sweeps read and write across the whole burst:
	// hold every stripe, start to finish.
	t := allocTarget(alloc)
	arr, policy := t.arr, t.policy
	st := e.record(&t)
	if st != nil {
		st, _ = e.acquire(context.Background(), arr, st, 0, st.n-1)
	}
	if st == nil {
		return BurstOutcome{}, t.errUnprotected()
	}
	defer st.releaseAll()
	t.name = "burst" // what the audit trail and StageHook call burst cells

	if len(offsets) == 0 {
		return BurstOutcome{}, fmt.Errorf("%w: empty burst", ErrCheckpointRestartRequired)
	}
	for _, off := range offsets {
		if off < 0 || off >= arr.Len() {
			return BurstOutcome{}, errOutOfRange(off)
		}
	}
	// Canonicalize: dedupe and sort. Everything below operates on work;
	// Old/New remain indexed like the caller's offsets slice.
	work := slices.Clone(offsets)
	slices.Sort(work)
	work = slices.Compact(work)
	if len(work) == arr.Len() {
		return BurstOutcome{}, fmt.Errorf("%w: every element corrupted", ErrCheckpointRestartRequired)
	}

	out := BurstOutcome{Old: make([]float64, len(offsets)), New: make([]float64, len(offsets))}
	for i, off := range offsets {
		out.Old[i] = arr.AtOffset(off)
	}
	old := make([]float64, len(work)) // indexed like work
	for w, off := range work {
		old[w] = arr.AtOffset(off)
	}
	// Coalesced quarantine insert: one pass over the quarantine set, one
	// over the shared statistics.
	st.quarantineCells(work...)

	env := e.envFor(arr, st, e.nextSeed())

	// --- Seed pass: BFS by healthy-neighbor count. ---
	//
	// keys[w] counts work[w]'s healthy face neighbors, read off the live
	// mask once. From then on only a seed changes a count — it turns a
	// quarantined burst cell trustworthy — so seeding a cell adds one to each
	// pending neighbor's key. Keys only order the pass; every seed's average
	// reads the live mask.
	buf := make([]int, 2*len(work))
	keys, pending := buf[:len(work)], buf[len(work):] // pending indexes work
	for w, off := range work {
		keys[w], pending[w] = frontierHealthy(env, arr, off), w
	}
	mean, haveMean := 0.0, false
	for len(pending) > 0 {
		// Pick the pending cell with the most healthy neighbors; ties keep
		// the order the previous round's stable sort left them in.
		slices.SortStableFunc(pending, func(i, j int) int { return keys[j] - keys[i] })
		w := pending[0]
		pending = pending[1:]
		keys[w] = -1 // seeded: no longer pending
		off := work[w]
		sum, n := 0.0, 0
		faceNeighbors(arr, off, func(noff int) {
			if !env.Masked(noff) {
				sum += arr.AtOffset(noff)
				n++
			}
		})
		v := 0.0
		if n > 0 {
			v = sum / float64(n)
		} else {
			// Isolated deep inside the burst and nothing healthy adjacent
			// yet — fall back to the healthy-cell mean as a seed.
			if !haveMean {
				mean, haveMean = healthyMean(env, arr, work), true
			}
			v = mean
		}
		arr.SetOffset(off, v)
		env.Allow(off) // seeded: trustworthy enough to feed later stencils
		faceNeighbors(arr, off, func(noff int) {
			if j, ok := slices.BinarySearch(work, noff); ok && keys[j] >= 0 {
				keys[j]++
			}
		})
	}
	idx := make([]int, arr.NumDims())

	// --- Choose the refinement method. ---
	method := policy.Method
	tuned := false
	if policy.Any {
		// Tune once at the burst's first element; the whole burst shares
		// locality.
		arr.CoordsInto(idx, work[0])
		if sel, err := autotune.Select(env, idx, e.opts.Tune); err == nil {
			method, tuned = sel.Best, true
		} else {
			method = provisionalMethod
		}
	}

	// --- Gauss-Seidel refinement sweeps (panic-isolated like the ladder). ---
	sweeps := 0
	for ; sweeps < burstMaxSweeps; sweeps++ {
		maxRel := 0.0
		for _, off := range work {
			arr.CoordsInto(idx, off)
			v, err := safePredict(method, env, idx)
			if err != nil || !isFinite(v) {
				continue // keep the seed for this cell
			}
			old := arr.AtOffset(off)
			arr.SetOffset(off, v)
			den := math.Abs(v)
			if den == 0 {
				den = 1
			}
			if rel := math.Abs(v-old) / den; rel > maxRel {
				maxRel = rel
			}
		}
		if maxRel < burstTol {
			sweeps++
			break
		}
	}

	// --- Verification: release verified cells, escalate the rest. ---
	verified := make([]bool, len(work))
	for i, off := range work {
		arr.CoordsInto(idx, off)
		verified[i] = verifyValue(env, idx, off, arr.AtOffset(off), policy.Range) == nil
	}
	for i, off := range work {
		if verified[i] {
			// Released before escalation so ladder climbs for the failures
			// can trust these neighbors.
			st.quarantine.remove(off)
		}
	}

	// Sweep-verified cells are done; each failure climbs the single-element
	// ladder as a cluster of one under the stripes already held, in offset
	// order, so the audit trail stays in offset order too.
	swept, failed := 0, 0
	var lastErr error
	for i, off := range work {
		if verified[i] {
			swept++
			e.audit.record(AuditEntry{
				Alloc: t.name, Offset: off, Method: method, Tuned: tuned,
				Old: old[i], New: arr.AtOffset(off), OK: true,
			})
			continue
		}
		out.Escalated++
		m := [1]member{{off: off, seed: e.nextSeed(), burst: true, old: old[i]}}
		e.climb(context.Background(), &t, st, &cluster{members: m[:], held: true}, time.Time{}, nil)
		if m[0].err != nil {
			failed++
			lastErr = m[0].err
		}
	}
	for i, off := range offsets {
		out.New[i] = arr.AtOffset(off)
	}

	out.Method, out.Tuned, out.Sweeps = method, tuned, sweeps
	e.mu.Lock()
	e.stats.Recovered += swept
	if swept > 0 {
		e.byMethod[method] += int64(swept)
	}
	if tuned {
		e.stats.Tuned++
	}
	e.mu.Unlock()
	if failed > 0 {
		return out, fmt.Errorf("%w: %d of %d burst elements unrecovered (last: %v)",
			ErrCheckpointRestartRequired, failed, len(work), lastErr)
	}
	return out, nil
}

// healthyMean is the seed of last resort: the mean of the finite cells that
// are neither in the burst (work, sorted) nor reported corrupt, summed in
// offset order. Burst cells are skipped by membership, not by the mask: the
// ones seeded so far have left the env's mask and hold estimates, not data.
// It is a burst's only whole-array pass, and only a seed with no healthy
// face neighbor (a burst enclosed by quarantined cells) needs it.
func healthyMean(env *predict.Env, arr *ndarray.Array, work []int) float64 {
	sum, n := 0.0, 0
	next := 0 // work[next] is the next burst cell in offset order
	for off := 0; off < arr.Len(); off++ {
		if next < len(work) && work[next] == off {
			next++
			continue
		}
		if v := arr.AtOffset(off); !env.Masked(off) && isFinite(v) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
