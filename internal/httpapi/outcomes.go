package httpapi

import "sync"

// outcomeRing is a bounded, seq-stamped buffer of finished recoveries that
// remote clients poll as a feed. Writers never block: past capacity the
// oldest records fall off and a slow poller observes Dropped instead of
// wedging the goroutines that run recoveries.
//
// The record with sequence number seq lives in buf[(seq-1)%cap]. buf grows
// by append until it holds cap records and is overwritten in place from
// then on, so add costs one slot store and page costs only the records it
// walks, whatever the capacity.
type outcomeRing struct {
	mu    sync.Mutex
	buf   []OutcomeRecord // len <= cap; holds seqs [first, next)
	cap   int
	next  uint64 // seq assigned to the next record
	first uint64 // oldest seq still held; == next while the ring is empty
}

func newOutcomeRing(capacity int) *outcomeRing {
	return &outcomeRing{cap: capacity, next: 1, first: 1}
}

// slot returns the record stored for seq, which must be in [first, next).
func (r *outcomeRing) slot(seq uint64) *OutcomeRecord {
	return &r.buf[(seq-1)%uint64(r.cap)]
}

// add stamps and stores one record.
func (r *outcomeRing) add(rec OutcomeRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Seq = r.next
	r.next++
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, rec)
		return
	}
	*r.slot(rec.Seq) = rec
	r.first++
}

// page returns records with Seq >= since that match the tenant (and alloc,
// when non-empty), up to limit, plus the next poll cursor and whether
// records before since already fell off the ring.
func (r *outcomeRing) page(since uint64, tenant, alloc string, limit int) OutcomesPage {
	if limit <= 0 || limit > 1000 {
		limit = 256
	}
	if since == 0 {
		since = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	page := OutcomesPage{Next: since, Dropped: since < r.first, Outcomes: []OutcomeRecord{}}
	for seq := max(since, r.first); seq < r.next && len(page.Outcomes) < limit; seq++ {
		page.Next = seq + 1
		rec := r.slot(seq)
		if rec.Tenant != tenant || (alloc != "" && rec.Alloc != alloc) {
			continue
		}
		page.Outcomes = append(page.Outcomes, *rec)
	}
	return page
}
