package mca

import (
	"testing"
)

func TestTopologyDecodeRowSpanRoundTrip(t *testing.T) {
	topo := Topology{Banks: 4, RowBytes: 256, ColBytes: 8}
	for _, addr := range []uint64{0, 8, 255, 256, 1024, 0x1234_5678} {
		bank, row, col := topo.Decode(addr)
		lo, hi := topo.RowSpan(bank, row)
		if addr < lo || addr >= hi {
			t.Errorf("addr %#x decoded to (bank=%d,row=%d) but RowSpan is [%#x,%#x)", addr, bank, row, lo, hi)
		}
		if want := int(addr%256) / 8; col != want {
			t.Errorf("addr %#x col = %d, want %d", addr, col, want)
		}
	}
	// Consecutive rows of one bank are Banks*RowBytes apart.
	lo0, _ := topo.RowSpan(2, 0)
	lo1, _ := topo.RowSpan(2, 1)
	if lo1-lo0 != 4*256 {
		t.Errorf("row stride = %d, want %d", lo1-lo0, 4*256)
	}
}

func TestCEObserverAttribution(t *testing.T) {
	m := New(2)
	m.SetTopology(Topology{Banks: 2, RowBytes: 128, ColBytes: 8})
	var got []CEObservation
	m.SetCEObserver(func(o CEObservation) { got = append(got, o) })

	m.RaiseMemoryCEAt(0x0, 3)    // bank 0, row 0, col 0
	m.RaiseMemoryCEAt(0x80, 7)   // bank 1, row 0, col 0
	m.RaiseMemoryCEAt(0x108, 12) // bank 0, row 1, col 1
	m.RaiseMemoryCEAt(0x88, -1)  // bank 1, row 0, col 1, unknown bit

	want := []CEObservation{
		{Seq: 1, Addr: 0x0, Bank: 0, Row: 0, Col: 0, Bit: 3},
		{Seq: 2, Addr: 0x80, Bank: 1, Row: 0, Col: 0, Bit: 7},
		{Seq: 3, Addr: 0x108, Bank: 0, Row: 1, Col: 1, Bit: 12},
		{Seq: 4, Addr: 0x88, Bank: 1, Row: 0, Col: 1, Bit: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d observations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("observation %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCERequeueAttributionExact is the regression test for the CE overflow
// path: a CE raised from inside the observer (the shape a predictor-
// triggered scrub produces) must be queued and redelivered with its
// original decoded attribution — bank, row, column, bit, and sequence all
// exact, in raise order — not re-decoded or collapsed into a count, so CE
// redelivery matches the attribution-exactness of the DUE overflow queue.
func TestCERequeueAttributionExact(t *testing.T) {
	m := New(2)
	m.SetTopology(Topology{Banks: 2, RowBytes: 128, ColBytes: 8})
	var got []CEObservation
	m.SetCEObserver(func(o CEObservation) {
		got = append(got, o)
		if o.Seq == 1 {
			// Re-entrant raises: both must be queued, then redelivered in
			// order after the outer delivery returns.
			m.RaiseMemoryCEAt(0x180, 5) // bank 1, row 1
			m.RaiseMemoryCEAt(0x208, 9) // bank 0, row 2, col 1
		}
	})

	m.RaiseMemoryCEAt(0x10, 2) // bank 0, row 0, col 2

	want := []CEObservation{
		{Seq: 1, Addr: 0x10, Bank: 0, Row: 0, Col: 2, Bit: 2},
		{Seq: 2, Addr: 0x180, Bank: 1, Row: 1, Col: 0, Bit: 5},
		{Seq: 3, Addr: 0x208, Bank: 0, Row: 2, Col: 1, Bit: 9},
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d observations, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("observation %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// The queue must also survive deeper nesting without reordering.
	got = got[:0]
	depth := 0
	m.SetCEObserver(func(o CEObservation) {
		got = append(got, o)
		if depth < 3 {
			depth++
			m.RaiseMemoryCEAt(uint64(0x400+depth*8), depth)
		}
	})
	m.RaiseMemoryCEAt(0x400, 0)
	if len(got) != 4 {
		t.Fatalf("nested delivery count = %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Errorf("delivery out of order at %d: %+v", i, got)
		}
		wantBank, wantRow, wantCol := m.Topology().Decode(got[i].Addr)
		if got[i].Bank != wantBank || got[i].Row != wantRow || got[i].Col != wantCol {
			t.Errorf("observation %d attribution (%d,%d,%d) does not match Decode(%#x)=(%d,%d,%d)",
				i, got[i].Bank, got[i].Row, got[i].Col, got[i].Addr, wantBank, wantRow, wantCol)
		}
	}
}

func TestOfflineRowDiscardsLatentsAndBlocksScrub(t *testing.T) {
	m := New(2)
	topo := Topology{Banks: 2, RowBytes: 128, ColBytes: 8}
	m.SetTopology(topo)
	var events []Event
	m.Handle(func(ev Event) error { events = append(events, ev); return nil })

	lo, _ := topo.RowSpan(1, 3)
	m.Plant(lo+8, 4)    // inside the row to be offlined
	m.Plant(lo+16, 5)   // inside the row to be offlined
	m.Plant(0x2000, 11) // elsewhere

	if !m.OfflineRow(1, 3) {
		t.Fatal("OfflineRow returned false for a fresh row")
	}
	if m.OfflineRow(1, 3) {
		t.Error("OfflineRow returned true for an already-offlined row")
	}
	if !m.RowOfflined(lo + 64) {
		t.Error("RowOfflined false inside the offlined row")
	}
	if m.RowOfflined(0x2000) {
		t.Error("RowOfflined true for a healthy row")
	}
	if got := m.PendingFaults(); got != 1 {
		t.Fatalf("PendingFaults = %d after offline, want 1 (row latents discarded)", got)
	}
	if faulted, _ := m.Touch(lo, 128); faulted {
		t.Error("Touch faulted inside an offlined row")
	}
	rows := m.OfflinedRows()
	if len(rows) != 1 || rows[0] != (RowKey{Bank: 1, Row: 3}) {
		t.Errorf("OfflinedRows = %v, want [{1 3}]", rows)
	}
	if len(events) != 0 {
		t.Errorf("unexpected MCEs delivered: %v", events)
	}
}

func TestScrubBankFindsOnlyThatBank(t *testing.T) {
	m := New(4)
	topo := Topology{Banks: 2, RowBytes: 128, ColBytes: 8}
	m.SetTopology(topo)
	var events []Event
	m.Handle(func(ev Event) error { events = append(events, ev); return nil })

	b0, _ := topo.RowSpan(0, 1)
	b1, _ := topo.RowSpan(1, 1)
	m.Plant(b0+8, 1)
	m.Plant(b0+24, 2)
	m.Plant(b1+8, 3)

	found, err := m.ScrubBank(0)
	if err != nil || found != 2 {
		t.Fatalf("ScrubBank(0) = (%d, %v), want (2, nil)", found, err)
	}
	if got := m.PendingFaults(); got != 1 {
		t.Errorf("PendingFaults = %d, want 1 (bank 1 untouched)", got)
	}
	for _, ev := range events {
		if ev.Status&0xFFFF != CodeMemScrub {
			t.Errorf("event %v lacks the patrol-scrub code", ev)
		}
	}
}
