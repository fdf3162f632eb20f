package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// recoverBurstRef is RecoverBurst as it was before the seed pass kept
// per-cell healthy-neighbor counts: an eager whole-array healthy mean, a
// sort comparator that re-derives both cells' neighbor averages, and two
// per-burst maps. Kept verbatim as the reference the differential test
// compares against; test-only.
func (e *Engine) recoverBurstRef(alloc *registry.Allocation, offsets []int) (BurstOutcome, error) {
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
	st.quarantineCells(work...)

	env := e.envFor(arr, st, e.nextSeed())
	seeded := make(map[int]bool, len(work))
	env.SetMaskFunc(func(off int) bool { return !seeded[off] && st.quarantine.Masked(off) })

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
		seeded[off] = true // trustworthy enough to feed later stencils
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

// burstRun is everything observable about one burst recovery on a fresh
// engine.
type burstRun struct {
	cells       []uint64
	out         BurstOutcome
	err         string
	audit       []AuditEntry
	stats       Stats
	methods     map[predict.Method]int64
	quarantined []int
}

// burstSetup is one differential case: a field, a policy, the burst, and the
// cells reported corrupt (and overwritten with garbage) before it.
type burstSetup struct {
	dims   []int
	field  []float64
	policy registry.Policy
	burst  []int
	marked []int
}

// run replays the case on a fresh engine through fn (RecoverBurst or
// the reference) and records the result.
func (c burstSetup) run(t *testing.T, fn func(*Engine, *registry.Allocation, []int) (BurstOutcome, error)) burstRun {
	t.Helper()
	a, err := ndarray.FromData(append([]float64(nil), c.field...), c.dims...)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(Options{Seed: 23})
	alloc := eng.Protect("b", a, bitflip.Float32, c.policy)
	for i, off := range c.marked {
		a.SetOffset(off, []float64{1e30, math.NaN(), math.Inf(-1)}[i%3])
		eng.MarkCorrupt(alloc, off)
	}
	for i, off := range c.burst {
		a.SetOffset(off, []float64{math.NaN(), math.Inf(1), -1e20}[i%3])
	}
	out, err := fn(eng, alloc, c.burst)
	r := burstRun{out: out, audit: eng.Audit(), stats: eng.Stats(), methods: eng.MethodCounts(),
		quarantined: eng.Quarantined(alloc)}
	if err != nil {
		r.err = err.Error()
	}
	for _, v := range a.Data() {
		r.cells = append(r.cells, math.Float64bits(v))
	}
	return r
}

func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// diffBurstRuns returns a description of the first difference between got
// and want, or "" when they agree bit for bit.
func diffBurstRuns(got, want burstRun) string {
	switch {
	case !slices.Equal(got.cells, want.cells):
		return "array contents differ"
	case got.out.Method != want.out.Method || got.out.Tuned != want.out.Tuned ||
		got.out.Sweeps != want.out.Sweeps || got.out.Escalated != want.out.Escalated:
		return fmt.Sprintf("outcome %+v, reference %+v", got.out, want.out)
	case !sameFloatBits(got.out.Old, want.out.Old) || !sameFloatBits(got.out.New, want.out.New):
		return fmt.Sprintf("Old/New %v/%v, reference %v/%v", got.out.Old, got.out.New, want.out.Old, want.out.New)
	case got.err != want.err:
		return fmt.Sprintf("error %q, reference %q", got.err, want.err)
	case len(got.audit) != len(want.audit):
		return fmt.Sprintf("%d audit entries, reference %d", len(got.audit), len(want.audit))
	case !reflect.DeepEqual(got.stats, want.stats):
		return fmt.Sprintf("stats %+v, reference %+v", got.stats, want.stats)
	case !reflect.DeepEqual(got.methods, want.methods):
		return fmt.Sprintf("method counts %v, reference %v", got.methods, want.methods)
	case !slices.Equal(got.quarantined, want.quarantined):
		return fmt.Sprintf("quarantined %v, reference %v", got.quarantined, want.quarantined)
	}
	for i := range got.audit {
		g, w := got.audit[i], want.audit[i]
		gOld, gNew, wOld, wNew := g.Old, g.New, w.Old, w.New
		g.Old, g.New, w.Old, w.New = 0, 0, 0, 0
		if g != w || !sameFloatBits([]float64{gOld, gNew}, []float64{wOld, wNew}) {
			return fmt.Sprintf("audit entry %d: %v, reference %v", i, got.audit[i], want.audit[i])
		}
	}
	return ""
}

// faceNeighborsOf returns the in-bounds face neighbors of the cells in set
// that are not themselves in set, ascending.
func faceNeighborsOf(a *ndarray.Array, set []int) []int {
	var out []int
	for _, off := range set {
		faceNeighbors(a, off, func(noff int) {
			if !slices.Contains(set, noff) && !slices.Contains(out, noff) {
				out = append(out, noff)
			}
		})
	}
	sort.Ints(out)
	return out
}

// refBursts draws the differential test's burst shapes on a: a row (a run
// along the last dimension), a column (a run along the first), a block of
// side up to 3, scattered cells, and the block again, shuffled, with
// duplicates.
func refBursts(rng *rand.Rand, a *ndarray.Array) map[string][]int {
	dims := a.Dims()
	corner := make([]int, len(dims))
	run := func(d, n int) []int {
		n = min(n, dims[d])
		for t := range corner {
			corner[t] = rng.Intn(dims[t])
		}
		corner[d] = rng.Intn(dims[d] - n + 1)
		base := a.Offset(corner...)
		offs := make([]int, n)
		for i := range offs {
			offs[i] = base + i*a.Stride(d)
		}
		return offs
	}
	block := []int{0}
	for d := range dims {
		side := min(3, dims[d])
		lo := rng.Intn(dims[d] - side + 1)
		var next []int
		for _, off := range block {
			for k := 0; k < side; k++ {
				next = append(next, off+(lo+k)*a.Stride(d))
			}
		}
		block = next
	}
	messy := append([]int(nil), block...)
	for k := 0; k < 3; k++ {
		messy = append(messy, block[rng.Intn(len(block))])
	}
	rng.Shuffle(len(messy), func(i, j int) { messy[i], messy[j] = messy[j], messy[i] })
	return map[string][]int{
		"row":       run(len(dims)-1, 16),
		"column":    run(0, 6),
		"block":     block,
		"scattered": rng.Perm(a.Len())[:6],
		"messy":     messy,
	}
}

// TestRecoverBurstMatchesReference runs RecoverBurst and the reference on two
// engines from the same seed over seeded 1-D, 2-D and 3-D fields × row,
// column, block, scattered and unsorted-with-duplicates bursts × Lorenzo1 and
// RECOVER_ANY × no range and a tight one × a clean neighborhood, one
// pre-quarantined neighbor, and a MarkCorrupt ring enclosing the burst (the
// healthy-mean fallback). Everything observable must agree bit for bit.
func TestRecoverBurstMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	escalated, failed := 0, 0
	for _, dims := range [][]int{{120}, {18, 22}, {7, 8, 9}} {
		a := ndarray.New(dims...)
		phase := rng.Float64() * 6
		a.FillFunc(func(idx []int) float64 {
			v := 30.0
			for d, i := range idx {
				v += (4 - float64(d)) * math.Sin(float64(i)/(3+float64(d))+phase)
			}
			return v + 0.05*rng.NormFloat64()
		})
		field := a.Data()
		lo, hi := a.MinMax()
		span := hi - lo
		bursts := refBursts(rng, a)
		for _, kind := range []string{"row", "column", "block", "scattered", "messy"} {
			burst := bursts[kind]
			ring := faceNeighborsOf(a, burst)
			for _, pol := range []registry.Policy{
				registry.RecoverWith(predict.MethodLorenzo1),
				registry.RecoverAny(),
				registry.RecoverWith(predict.MethodLorenzo1).WithRange(lo+span/10, hi-span/10),
				registry.RecoverAny().WithRange(lo+span/10, hi-span/10),
			} {
				for _, hood := range []string{"clean", "neighbour", "ring"} {
					c := burstSetup{dims: dims, field: field, policy: pol, burst: burst}
					switch hood {
					case "neighbour":
						if len(ring) == 0 {
							continue
						}
						c.marked = ring[len(ring)/2 : len(ring)/2+1]
					case "ring":
						c.marked = ring
					}
					got := c.run(t, (*Engine).RecoverBurst)
					want := c.run(t, (*Engine).recoverBurstRef)
					if d := diffBurstRuns(got, want); d != "" {
						t.Errorf("dims %v, %s burst %v, %v, %s: %s", dims, kind, burst, pol, hood, d)
					}
					if want.out.Escalated > 0 {
						escalated++
					}
					if want.err != "" {
						failed++
					}
				}
			}
		}
	}
	// The cases must reach the ladder, and exhaust it, somewhere.
	if escalated == 0 || failed == 0 {
		t.Errorf("%d cases escalated and %d failed; the differential covers neither path", escalated, failed)
	}
}

// TestRecoverBurstEnclosedSeedsFromHealthyMean drives the seed pass's
// last-resort fallback: a 2x2 block whose every cell within Chebyshev
// distance 2 is reported corrupt, so no block cell has a healthy face
// neighbor, Average cannot refine it, and verification has nothing to compare
// it with. The block therefore keeps its seed: the mean of the healthy cells,
// in offset order, skipping the reported cells, every burst cell (including a
// run elsewhere, seeded before the block) and NaN/±Inf cells.
func TestRecoverBurstEnclosedSeedsFromHealthyMean(t *testing.T) {
	eng := NewEngine(Options{Seed: 9})
	a := smoothArray(24, 24)
	// Non-finite cells no one reported: healthy to the mask, skipped by the
	// mean.
	a.SetOffset(a.Offset(2, 20), math.NaN())
	a.SetOffset(a.Offset(3, 21), math.Inf(1))
	a.SetOffset(a.Offset(20, 3), math.Inf(-1))
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))

	block := []int{a.Offset(15, 15), a.Offset(15, 16), a.Offset(16, 15), a.Offset(16, 16)}
	var ring []int
	for i := 13; i <= 18; i++ {
		for j := 13; j <= 18; j++ {
			if off := a.Offset(i, j); !slices.Contains(block, off) {
				ring = append(ring, off)
			}
		}
	}
	for _, off := range ring {
		a.SetOffset(off, 1e30)
		eng.MarkCorrupt(alloc, off)
	}
	// A run in open field: it has healthy neighbors, so it is seeded (and
	// leaves quarantine in the env) before the block's first seed is needed.
	run := []int{a.Offset(5, 5), a.Offset(5, 6), a.Offset(5, 7)}
	burst := append(append([]int(nil), block...), run...)
	for _, off := range burst {
		a.SetOffset(off, math.NaN())
	}

	sum, n := 0.0, 0
	for off, v := range a.Data() {
		if slices.Contains(burst, off) || slices.Contains(ring, off) || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		sum += v
		n++
	}
	mean := sum / float64(n)

	out, err := eng.RecoverBurst(alloc, burst)
	if err != nil {
		t.Fatal(err)
	}
	for i := range block {
		if math.Float64bits(out.New[i]) != math.Float64bits(mean) {
			t.Errorf("block cell %d = %v (%#x), want the healthy mean %v (%#x)",
				i, out.New[i], math.Float64bits(out.New[i]), mean, math.Float64bits(mean))
		}
	}
	for i := range run {
		if v := out.New[len(block)+i]; !(math.Abs(v-30) < 10) {
			t.Errorf("open-field cell %d = %v", i, v)
		}
	}
}
