package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"spatialdue/internal/autotune"
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
	// The BFS seed pass and healthy-mean scan read the array whole: hold
	// every stripe, start to finish.
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
	seen := make(map[int]bool, len(offsets))
	for _, off := range offsets {
		if off < 0 || off >= arr.Len() {
			return BurstOutcome{}, errOutOfRange(off)
		}
		seen[off] = true
	}
	// Canonicalize: dedupe and sort. Everything below operates on work;
	// Old/New remain indexed like the caller's offsets slice.
	work := make([]int, 0, len(seen))
	for off := range seen {
		work = append(work, off)
	}
	sort.Ints(work)
	if len(work) == arr.Len() {
		return BurstOutcome{}, fmt.Errorf("%w: every element corrupted", ErrCheckpointRestartRequired)
	}

	out := BurstOutcome{Old: make([]float64, len(offsets)), New: make([]float64, len(offsets))}
	oldOf := make(map[int]float64, len(work))
	for i, off := range offsets {
		out.Old[i] = arr.AtOffset(off)
		oldOf[off] = out.Old[i]
	}
	// Coalesced quarantine insert: one pass over the quarantine set, one
	// over the shared statistics.
	e.quarantineCells(arr, st, work...)

	env := e.envFor(arr, st, e.nextSeed())

	// Mean over the healthy cells only — quarantined ones (the burst, plus
	// anything reported by MarkCorrupt) may hold NaN or garbage. Used as a
	// last-resort seed for cells that (pathologically) never gain a healthy
	// neighbor during the BFS.
	healthySum, healthyN := 0.0, 0
	for off := 0; off < arr.Len(); off++ {
		if v := arr.AtOffset(off); !env.Masked(off) && isFinite(v) {
			healthySum += v
			healthyN++
		}
	}
	healthyMean := 0.0
	if healthyN > 0 {
		healthyMean = healthySum / float64(healthyN)
	}

	// --- Seed pass: BFS by healthy-neighbor count. ---
	pending := append([]int(nil), work...)
	idx := make([]int, arr.NumDims())
	nb := make([]int, arr.NumDims())
	healthyAvg := func(off int) (float64, int) {
		arr.CoordsInto(idx, off)
		copy(nb, idx)
		sum, n := 0.0, 0
		for d := 0; d < arr.NumDims(); d++ {
			for _, delta := range [2]int{-1, 1} {
				nb[d] = idx[d] + delta
				if nb[d] >= 0 && nb[d] < arr.Dim(d) {
					noff := arr.Offset(nb...)
					if !env.Masked(noff) {
						sum += arr.AtOffset(noff)
						n++
					}
				}
			}
			nb[d] = idx[d]
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}
	for len(pending) > 0 {
		// Pick the pending cell with the most healthy neighbors.
		sort.SliceStable(pending, func(i, j int) bool {
			_, ni := healthyAvg(pending[i])
			_, nj := healthyAvg(pending[j])
			return ni > nj
		})
		off := pending[0]
		v, n := healthyAvg(off)
		if n == 0 {
			// Isolated deep inside the burst and nothing healthy adjacent
			// yet — fall back to the healthy-cell mean as a seed.
			v = healthyMean
		}
		arr.SetOffset(off, v)
		env.Allow(off) // seeded: trustworthy enough to feed later stencils
		pending = pending[1:]
	}

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
			e.quarantine.remove(arr, off)
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
				Old: oldOf[off], New: arr.AtOffset(off), OK: true,
			})
			continue
		}
		out.Escalated++
		m := [1]member{{off: off, seed: e.nextSeed(), burst: true, old: oldOf[off]}}
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
