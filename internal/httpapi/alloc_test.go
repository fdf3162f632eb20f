//go:build !race

// Allocation assertions are skipped under -race: the race runtime drops
// sync.Pool entries on purpose.

package httpapi

import "testing"

// TestOutcomesPageAllocations pins a 64-record page's round trip: the
// appender allocates nothing into a reused buffer, and the decoder makes one
// allocation for the records, one per first sight of the tenant and alloc,
// and one per trace ID, which is unique per record.
func TestOutcomesPageAllocations(t *testing.T) {
	page := benchPageRecords()
	buf := page.AppendJSON(nil, false)
	if n := testing.AllocsPerRun(100, func() { buf = page.AppendJSON(buf[:0], false) }); n != 0 {
		t.Errorf("AppendJSON made %v allocations into a reused buffer, want 0", n)
	}
	want := float64(1 + 2 + len(page.Outcomes))
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if benchPage, err = DecodeOutcomesPage(buf); err != nil {
			t.Fatal(err)
		}
	}); n > want {
		t.Errorf("DecodeOutcomesPage made %v allocations, want <= %v", n, want)
	}
}
