package httpapi

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// shiftRing is the feed as it was before it became a fixed-slot ring: an
// ordered slice that shifts every record down by one once it is full. It
// is kept as the oracle of the feed's wire contract (Seq numbering, Next,
// Dropped, the limit clamp, since=0 meaning 1).
type shiftRing struct {
	buf   []OutcomeRecord
	cap   int
	next  uint64
	first uint64
}

func newShiftRing(capacity int) *shiftRing {
	if capacity <= 0 {
		capacity = 4096
	}
	return &shiftRing{cap: capacity, next: 1, first: 1}
}

func (r *shiftRing) add(rec OutcomeRecord) {
	rec.Seq = r.next
	r.next++
	r.buf = append(r.buf, rec)
	if over := len(r.buf) - r.cap; over > 0 {
		r.buf = append(r.buf[:0], r.buf[over:]...)
	}
	if len(r.buf) > 0 {
		r.first = r.buf[0].Seq
	}
}

func (r *shiftRing) page(since uint64, tenant, alloc string, limit int) OutcomesPage {
	if limit <= 0 || limit > 1000 {
		limit = 256
	}
	page := OutcomesPage{Next: since, Outcomes: []OutcomeRecord{}}
	if since == 0 {
		since = 1
	}
	if since < r.first {
		page.Dropped = true
	}
	for _, rec := range r.buf {
		if rec.Seq < since {
			continue
		}
		if len(page.Outcomes) >= limit {
			break
		}
		page.Next = rec.Seq + 1
		if rec.Tenant != tenant || (alloc != "" && rec.Alloc != alloc) {
			continue
		}
		page.Outcomes = append(page.Outcomes, rec)
	}
	if page.Next < since {
		page.Next = since
	}
	return page
}

// TestOutcomeRingMatchesModel drives the ring and the oracle with one
// randomized add/page script and requires identical pages at every step,
// across several wrap-arounds of each capacity.
func TestOutcomeRingMatchesModel(t *testing.T) {
	tenants := []string{"", "acme", "globex"}
	allocs := []string{"a", "b", "c"}
	limits := []int{-1, 0, 1, 256, 1000, 1001}
	for _, capacity := range []int{1, 2, 7, 4096} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			ring, model := newOutcomeRing(capacity), newShiftRing(capacity)
			check := func(since uint64, tenant, alloc string, limit int) {
				t.Helper()
				got, want := ring.page(since, tenant, alloc, limit), model.page(since, tenant, alloc, limit)
				if got.Next != want.Next || got.Dropped != want.Dropped || got.Outcomes == nil || !slices.Equal(got.Outcomes, want.Outcomes) {
					t.Fatalf("page(since=%d tenant=%q alloc=%q limit=%d) with seqs [%d,%d):\n got %+v\nwant %+v",
						since, tenant, alloc, limit, model.first, model.next, got, want)
				}
			}
			// Page the empty ring, then after every burst of adds until the
			// ring has wrapped three and a half times (and at least 50 steps).
			for step := 0; step < 50 || model.next <= uint64(3*capacity+capacity/2); step++ {
				burst := 1
				if capacity > 64 {
					burst = 1 + rng.Intn(200)
				}
				if step > 0 {
					for i := 0; i < burst; i++ {
						rec := OutcomeRecord{
							Tenant: tenants[rng.Intn(len(tenants))],
							Alloc:  allocs[rng.Intn(len(allocs))],
							Offset: rng.Intn(1 << 20), OK: rng.Intn(8) != 0,
							New: rng.Float64(), Attempts: 1 + rng.Intn(3),
						}
						ring.add(rec)
						model.add(rec)
					}
				}
				first, next := model.first, model.next
				sinces := []uint64{0, 1, first, (first + next) / 2, next, next + 1, next + 1000,
					first + uint64(rng.Int63n(int64(next-first)+1))}
				if first > 1 {
					sinces = append(sinces, first-1, 1+uint64(rng.Int63n(int64(first-1))))
				}
				for _, since := range sinces {
					check(since, tenants[rng.Intn(len(tenants))], "", limits[rng.Intn(len(limits))])
					check(since, tenants[rng.Intn(len(tenants))], allocs[rng.Intn(len(allocs))], limits[rng.Intn(len(limits))])
				}
				// Every limit once per step from the oldest record, where a
				// full page is most likely.
				for _, limit := range limits {
					check(first, tenants[step%len(tenants)], "", limit)
				}
			}
		})
	}
}

// TestOutcomeRingConcurrent runs writers against a poller per tenant that
// keeps up (and so must see each of its seqs exactly once, in order, with
// nothing dropped) and a slow poller that must be told Dropped exactly when
// its cursor fell off the ring.
func TestOutcomeRingConcurrent(t *testing.T) {
	const (
		writers   = 4
		perWriter = 2000
		capacity  = writers * perWriter // the keeping-up pollers can never be lapped
	)
	ring := newOutcomeRing(capacity)
	var writing sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				ring.add(OutcomeRecord{Tenant: fmt.Sprintf("t%d", w), Alloc: "a", Offset: i})
			}
		}(w)
	}

	var polling sync.WaitGroup
	for w := 0; w < writers; w++ {
		polling.Add(1)
		go func(tenant string) {
			defer polling.Done()
			var cursor, lastSeq uint64 = 1, 0
			offset := 0 // a tenant has one writer, so its offsets arrive in order
			for {
				finished := done.Load()
				page := ring.page(cursor, tenant, "", 64)
				if page.Dropped || page.Next < cursor {
					t.Errorf("%s: cursor %d: dropped=%v next=%d", tenant, cursor, page.Dropped, page.Next)
					return
				}
				for _, rec := range page.Outcomes {
					if rec.Tenant != tenant || rec.Seq <= lastSeq || rec.Seq < cursor || rec.Seq >= page.Next || rec.Offset != offset {
						t.Errorf("%s: cursor %d next %d got seq %d tenant %q offset %d, want offset %d after seq %d",
							tenant, cursor, page.Next, rec.Seq, rec.Tenant, rec.Offset, offset, lastSeq)
						return
					}
					lastSeq = rec.Seq
					offset++
				}
				if finished && page.Next == cursor {
					break
				}
				cursor = page.Next
			}
			if offset != perWriter {
				t.Errorf("%s: saw %d records, want %d", tenant, offset, perWriter)
			}
		}(fmt.Sprintf("t%d", w))
	}
	writing.Wait()
	done.Store(true)
	polling.Wait()

	// The slow poller: a ring of 8 under concurrent writes. Before every
	// other poll it waits until the writers are 32 records past its cursor,
	// so those polls are certainly lapped; the polls in between may or may
	// not be. Either way a page is Dropped exactly when its first reachable
	// record is past the cursor.
	const total = writers * perWriter
	small := newOutcomeRing(8)
	var added atomic.Uint64
	var lapping sync.WaitGroup
	for w := 0; w < writers; w++ {
		lapping.Add(1)
		go func() {
			defer lapping.Done()
			for i := 0; i < perWriter; i++ {
				small.add(OutcomeRecord{Tenant: "t", Alloc: "a"})
				added.Add(1)
			}
		}()
	}
	var cursor uint64 = 1
	drops := 0
	for polls := 0; cursor <= total; polls++ {
		if polls%2 == 0 {
			for added.Load() < min(cursor+32, total) {
				runtime.Gosched()
			}
		}
		page := small.page(cursor, "t", "", 4)
		if len(page.Outcomes) == 0 {
			if page.Dropped || page.Next != cursor {
				t.Fatalf("cursor %d: empty page with dropped=%v next=%d", cursor, page.Dropped, page.Next)
			}
			continue
		}
		if fell := page.Outcomes[0].Seq > cursor; fell != page.Dropped {
			t.Fatalf("cursor %d: first seq %d but dropped=%v", cursor, page.Outcomes[0].Seq, page.Dropped)
		}
		for i, rec := range page.Outcomes {
			if rec.Seq != page.Outcomes[0].Seq+uint64(i) {
				t.Fatalf("cursor %d: seqs not contiguous: %d at %d after %d", cursor, rec.Seq, i, page.Outcomes[0].Seq)
			}
		}
		if page.Dropped {
			drops++
		}
		cursor = page.Next
	}
	lapping.Wait()
	if drops == 0 {
		t.Fatal("slow poller was never lapped")
	}

	// Deterministic tail: the ring now holds the last 8 of 8000 records.
	last := uint64(total)
	for _, tc := range []struct {
		since   uint64
		dropped bool
		n       int
	}{{0, true, 8}, {last - 8, true, 8}, {last - 7, false, 8}, {last, false, 1}, {last + 1, false, 0}} {
		page := small.page(tc.since, "t", "", 0)
		if page.Dropped != tc.dropped || len(page.Outcomes) != tc.n || page.Next != last+1 {
			t.Errorf("since %d: dropped=%v n=%d next=%d, want dropped=%v n=%d next=%d",
				tc.since, page.Dropped, len(page.Outcomes), page.Next, tc.dropped, tc.n, last+1)
		}
	}
}

// BenchmarkOutcomeFeed measures the feed on a full ring: Add overwrites the
// oldest slot, PollTail fetches the newest record, PollMiss polls a cursor
// that is already up to date (what a waiting client does most). None of
// them may depend on the capacity.
func BenchmarkOutcomeFeed(b *testing.B) {
	rec := OutcomeRecord{Tenant: "acme", Alloc: "temperature", Offset: 12345, OK: true,
		Method: "lorenzo1", Stage: "primary", New: 287.5, Attempts: 1, TraceID: "4bf92f3577b34da6a3ce929d0e0e4736"}
	for _, capacity := range []int{4096, 65536} {
		ring := newOutcomeRing(capacity)
		for i := 0; i < capacity+capacity/2; i++ {
			ring.add(rec)
		}
		b.Run(fmt.Sprintf("Add/cap%d", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ring.add(rec)
			}
		})
		b.Run(fmt.Sprintf("PollTail/cap%d", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPage = ring.page(ring.next-1, "acme", "", 0)
			}
			if len(benchPage.Outcomes) != 1 {
				b.Fatalf("tail poll returned %d records", len(benchPage.Outcomes))
			}
		})
		b.Run(fmt.Sprintf("PollMiss/cap%d", capacity), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPage = ring.page(ring.next, "acme", "", 0)
			}
			if len(benchPage.Outcomes) != 0 {
				b.Fatalf("up-to-date poll returned %d records", len(benchPage.Outcomes))
			}
		})
	}
}

var benchPage OutcomesPage
