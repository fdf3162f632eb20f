package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"spatialdue/internal/registry"
)

// The quarantine set tracks every element offset that has been reported
// corrupt but not yet repaired and verified. Its job is double-fault
// hygiene: when a second DUE lands while a first recovery is in flight (or
// a burst takes out several cells at once), no reconstruction may read the
// still-garbage neighbors. The recovery engine wires each array's set into
// predict.Env as a live mask, so every stencil, probe, and range computation
// skips quarantined cells automatically.
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

// quarantine is one array's quarantine set, a part of its arrayState: one
// bit per element, the number of bits set in each block of blockWords words,
// and the number set in all. It is the predict.MaskSource of every Env built
// for the array. Readers take no lock — Masked is one atomic load — and an
// atomic load sees the set as it stands at the call, which is all the
// freshness contract asks. Writers flip bits with compare-and-swap loops: a
// word can straddle a stripe boundary, and MarkCorrupt/ClearCorrupt hold no
// stripe at all. The counts move only when a swap actually flips a bit, and
// after it, so they are exact whenever no write is in flight, and a block
// whose count reads zero held no bit that a finished add set.
type quarantine struct {
	words  []atomic.Uint64
	blocks []atomic.Int32 // bits set per block of blockWords words
	count  atomic.Int64
}

// blockWords is the number of bitmap words one block count covers: one
// 64-byte cache line, 512 cells.
const blockWords = 8

// init sizes an empty set for an array of cells elements.
func (q *quarantine) init(cells int) {
	n := (cells + 63) / 64
	q.words = make([]atomic.Uint64, n)
	q.blocks = make([]atomic.Int32, (n+blockWords-1)/blockWords)
}

// add quarantines off (0 <= off < cells).
func (q *quarantine) add(off int) {
	w, bit := &q.words[off>>6], uint64(1)<<(off&63)
	for old := w.Load(); old&bit == 0; old = w.Load() {
		if w.CompareAndSwap(old, old|bit) {
			q.blocks[off>>6/blockWords].Add(1)
			q.count.Add(1)
			return
		}
	}
}

// remove releases off (0 <= off < cells) from quarantine.
func (q *quarantine) remove(off int) {
	w, bit := &q.words[off>>6], uint64(1)<<(off&63)
	for old := w.Load(); old&bit != 0; old = w.Load() {
		if w.CompareAndSwap(old, old&^bit) {
			q.blocks[off>>6/blockWords].Add(-1)
			q.count.Add(-1)
			return
		}
	}
}

// Masked implements predict.MaskSource; an offset outside the array is never
// quarantined.
func (q *quarantine) Masked(off int) bool {
	w := uint(off) >> 6
	return w < uint(len(q.words)) && q.words[w].Load()&(1<<(uint(off)&63)) != 0
}

// AppendMasked implements predict.MaskSource. It reads the block counts
// [lo, hi] covers, and the words of [lo, hi] only in blocks whose count is
// not zero, so its cost follows the set bits near the span, not the span's
// length. It declines, with dst as it came, only when it would read more
// than limit counts or more than limit words — a span with many set bits,
// or one far longer than the patch it stands for — where limit per-cell
// Masked loads are the cheaper answer.
func (q *quarantine) AppendMasked(dst []int, lo, hi, limit int) ([]int, bool) {
	lo, hi = max(lo, 0), min(hi, 64*len(q.words)-1)
	if lo > hi {
		return dst, true
	}
	first, last := lo>>6, hi>>6
	if last/blockWords-first/blockWords >= limit {
		return dst, false
	}
	n0, loaded := len(dst), 0
	blocks := q.blocks[first/blockWords : last/blockWords+1]
	for b := range blocks {
		if blocks[b].Load() == 0 {
			continue
		}
		w0 := (first/blockWords + b) * blockWords
		w1 := min(w0+blockWords-1, last)
		w0 = max(w0, first)
		if loaded += w1 - w0 + 1; loaded > limit {
			return dst[:n0], false
		}
		words := q.words[w0 : w1+1]
		for i := range words {
			set := words[i].Load()
			if set == 0 {
				continue
			}
			w := w0 + i
			if w == first {
				set &= ^uint64(0) << (lo & 63)
			}
			if w == last {
				set &= ^uint64(0) >> (63 - hi&63)
			}
			for base := w << 6; set != 0; set &= set - 1 {
				dst = append(dst, base|bits.TrailingZeros64(set))
			}
		}
	}
	return dst, true
}

// offsets returns the quarantined offsets in ascending order (never nil).
func (q *quarantine) offsets() []int {
	out, _ := q.AppendMasked([]int{}, 0, 64*len(q.words)-1, math.MaxInt)
	return out
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
		st.quarantineCells(off)
	}
}

// IsQuarantined reports whether the element at linear offset off of alloc
// is currently quarantined.
func (e *Engine) IsQuarantined(alloc *registry.Allocation, off int) bool {
	st := e.liveState(alloc.Array)
	return st != nil && st.quarantine.Masked(off)
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
	if st := e.liveState(alloc.Array); st != nil {
		st.quarantine.remove(off)
		st.shared.Readmit(off)
	}
}

// Quarantined returns the offsets of alloc currently quarantined (reported
// corrupt, not yet repaired), in ascending order.
func (e *Engine) Quarantined(alloc *registry.Allocation) []int {
	if st := e.liveState(alloc.Array); st != nil {
		return st.quarantine.offsets()
	}
	return []int{}
}

// QuarantineCount returns the total number of quarantined elements across
// all protected arrays (exported to Prometheus as spatialdue_quarantined).
func (e *Engine) QuarantineCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := int64(0)
	for _, st := range e.arrays {
		n += st.quarantine.count.Load()
	}
	return int(n)
}
