package core

import (
	"slices"
	"sort"
	"sync"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/registry"
)

// The quarantine set tracks every element offset that has been reported
// corrupt but not yet repaired and verified. Its job is double-fault
// hygiene: when a second DUE lands while a first recovery is in flight (or
// a burst takes out several cells at once), no reconstruction may read the
// still-garbage neighbors. The recovery engine wires each array's view of
// this set into predict.Env as a live mask, so every stencil, probe, and
// range computation skips quarantined cells automatically.
//
// Freshness contract. Nothing is cached across predictions, probes, methods
// or ladder rungs: a cell reported by MarkCorrupt before a prediction starts
// is never read by that prediction, and the final predict and verifyValue at
// the target are separate, fresh queries. Within one prediction the
// small-stencil methods ask the set before every read, while LocalRegression
// asks once — after it starts, before it reads anything — for the
// quarantined offsets inside its patch's span. Reports are not ordered
// against array reads (MarkCorrupt takes no stripe), so per-read freshness
// was never a guarantee a reporter could rely on; the window in which a
// concurrent report can be missed is one prediction (<= 1 us), not one cell.
//
// Lifecycle: an offset enters quarantine when recovery of it begins (or when
// MarkCorrupt reports it from a detector), and leaves only when a verified
// reconstruction has been written in place. An offset whose recovery
// exhausts the escalation ladder stays quarantined, so later recoveries of
// its neighbors keep treating it as garbage until checkpoint-restart
// resolves it.

type quarantineSet struct {
	mu      sync.Mutex
	byArray map[*ndarray.Array]*arrayQuarantine
}

// arrayQuarantine is one array's slice of the quarantine set and the
// predict.MaskSource handed to every Env built for that array (allocated
// once per array, dropped by removeArray). All fields are guarded by q.mu.
type arrayQuarantine struct {
	q   *quarantineSet
	set map[int]struct{} // nil while the array has nothing quarantined
	// peak is the largest len(set) since set was last nil: Go maps never
	// shrink, so it — not len(set) — bounds the cost of iterating set.
	peak int
}

// view returns (creating on demand) arr's slice of the set.
func (q *quarantineSet) view(arr *ndarray.Array) *arrayQuarantine {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.viewLocked(arr)
}

func (q *quarantineSet) viewLocked(arr *ndarray.Array) *arrayQuarantine {
	v := q.byArray[arr]
	if v == nil {
		if q.byArray == nil {
			q.byArray = map[*ndarray.Array]*arrayQuarantine{}
		}
		v = &arrayQuarantine{q: q}
		q.byArray[arr] = v
	}
	return v
}

func (v *arrayQuarantine) addLocked(off int) {
	if v.set == nil {
		v.set = map[int]struct{}{}
	}
	v.set[off] = struct{}{}
	if len(v.set) > v.peak {
		v.peak = len(v.set)
	}
}

// Masked implements predict.MaskSource. It is the per-read query of every
// small-stencil method, so it unlocks without a defer (a map read cannot
// panic), which is what keeps it no dearer than the closure it replaced.
func (v *arrayQuarantine) Masked(off int) bool {
	v.q.mu.Lock()
	_, ok := v.set[off]
	v.q.mu.Unlock()
	return ok
}

// AppendMasked implements predict.MaskSource: one lock acquisition and one
// pass over the array's quarantined offsets answer a whole prediction. It
// declines when that pass could cost more than limit per-offset queries.
func (v *arrayQuarantine) AppendMasked(dst []int, lo, hi, limit int) ([]int, bool) {
	v.q.mu.Lock()
	defer v.q.mu.Unlock()
	if v.peak > limit {
		return dst, false
	}
	from := len(dst)
	for off := range v.set {
		if off >= lo && off <= hi {
			dst = append(dst, off)
		}
	}
	slices.Sort(dst[from:])
	return dst, true
}

// addAll inserts offs under one lock acquisition.
func (q *quarantineSet) addAll(arr *ndarray.Array, offs []int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	v := q.viewLocked(arr)
	for _, off := range offs {
		v.addLocked(off)
	}
}

func (q *quarantineSet) remove(arr *ndarray.Array, off int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	v := q.byArray[arr]
	if v == nil {
		return
	}
	delete(v.set, off)
	if len(v.set) == 0 {
		v.set, v.peak = nil, 0
	}
}

// removeArray drops every quarantine entry for an array (allocation
// teardown via Engine.Unprotect).
func (q *quarantineSet) removeArray(arr *ndarray.Array) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.byArray, arr)
}

func (q *quarantineSet) contains(arr *ndarray.Array, off int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	_, ok := q.setLocked(arr)[off]
	return ok
}

// setLocked returns arr's quarantined offsets; nil (readable, empty) when it
// has none.
func (q *quarantineSet) setLocked(arr *ndarray.Array) map[int]struct{} {
	if v := q.byArray[arr]; v != nil {
		return v.set
	}
	return nil
}

func (q *quarantineSet) offsets(arr *ndarray.Array) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	set := q.setLocked(arr)
	out := make([]int, 0, len(set))
	for off := range set {
		out = append(out, off)
	}
	sort.Ints(out)
	return out
}

func (q *quarantineSet) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, v := range q.byArray {
		n += len(v.set)
	}
	return n
}

// MarkCorrupt reports that the element at linear offset off of alloc holds
// garbage (e.g. a second MCE arrived while another recovery was running, or
// a detector localized corruption that will be repaired later). The offset
// is masked out of every stencil until a later RecoverElement/RecoverBurst
// repairs and verifies it. A report against an allocation that has been
// unprotected is dropped.
func (e *Engine) MarkCorrupt(alloc *registry.Allocation, off int) {
	if off < 0 || off >= alloc.Array.Len() {
		return
	}
	if st := e.liveState(alloc.Array); st != nil {
		e.quarantineCells(alloc.Array, st, off)
	}
}

// IsQuarantined reports whether the element at linear offset off of alloc
// is currently quarantined.
func (e *Engine) IsQuarantined(alloc *registry.Allocation, off int) bool {
	return e.quarantine.contains(alloc.Array, off)
}

// ClearCorrupt reverses MarkCorrupt for an element whose recovery was never
// admitted (the service rejects a submission after quarantining it at
// intake): the offset leaves quarantine and its snapshot contribution
// re-enters the shared statistics, restoring the pre-MarkCorrupt state so
// the cell is neither masked forever nor missing from neighborhood
// statistics. It must not be used for elements an in-flight or failed
// recovery owns — those stay quarantined until repaired or rebuilt.
func (e *Engine) ClearCorrupt(alloc *registry.Allocation, off int) {
	if off < 0 || off >= alloc.Array.Len() {
		return
	}
	e.quarantine.remove(alloc.Array, off)
	if st := e.liveState(alloc.Array); st != nil {
		st.shared.Readmit(off)
	}
}

// Quarantined returns the offsets of alloc currently quarantined (reported
// corrupt, not yet repaired), in ascending order.
func (e *Engine) Quarantined(alloc *registry.Allocation) []int {
	return e.quarantine.offsets(alloc.Array)
}

// QuarantineCount returns the total number of quarantined elements across
// all protected arrays (exported to Prometheus as spatialdue_quarantined).
func (e *Engine) QuarantineCount() int { return e.quarantine.size() }
