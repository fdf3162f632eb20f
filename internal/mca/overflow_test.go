package mca

import (
	"errors"
	"testing"
)

// TestNestedDUEQueuedAndRedelivered models the double-fault case the
// redelivery queue exists for: a second DUE arrives while the handler is
// still recovering the first, with every bank occupied. The second event
// must set the overflow bit on the bank, survive (queued, not dropped), and
// be redelivered — with the overflow bit as its trace — once the first
// recovery completes and frees the bank.
func TestNestedDUEQueuedAndRedelivered(t *testing.T) {
	m := New(1)
	var events []Event
	m.Handle(func(ev Event) error {
		events = append(events, ev)
		if ev.Addr == 0xA {
			// Mid-recovery of the first DUE, a second one strikes. The only
			// bank is mid-delivery, so this must queue, not clobber, and say
			// so: no handler has seen the event yet.
			if err := m.RaiseMemoryDUE(0xB, 3); !errors.Is(err, ErrQueued) {
				t.Errorf("nested raise = %v, want ErrQueued", err)
			}
			if n := m.PendingOverflow(); n != 1 {
				t.Errorf("PendingOverflow mid-recovery = %d, want 1", n)
			}
			// The bank still holds the FIRST record (the handler may re-read
			// it), now with the overflow bit set.
			status, addr, _ := m.ReadBank(ev.Bank)
			if addr != 0xA || status&StatusOver == 0 {
				t.Errorf("bank mid-recovery: addr=%#x status=%#x, want first record with overflow bit", addr, status)
			}
		}
		return nil // recovered
	})

	if err := m.RaiseMemoryDUE(0xA, 1); err != nil {
		t.Fatalf("first raise = %v", err)
	}

	if len(events) != 2 {
		t.Fatalf("delivered %d events, want 2 (second redelivered)", len(events))
	}
	if events[0].Addr != 0xA || events[0].Status&StatusOver != 0 {
		t.Errorf("first event = %+v, want 0xA without overflow bit", events[0])
	}
	if events[1].Addr != 0xB || events[1].Misc != 3 {
		t.Errorf("second event = %+v, want redelivered 0xB", events[1])
	}
	if events[1].Status&StatusOver == 0 {
		t.Error("redelivered event must carry the overflow bit")
	}
	if !events[1].IsDUE() {
		t.Errorf("redelivered event not a recoverable DUE: %+v", events[1])
	}
	if n := m.PendingOverflow(); n != 0 {
		t.Errorf("PendingOverflow after drain = %d, want 0", n)
	}
	due, _, overflow := m.Stats()
	if due != 2 || overflow != 1 {
		t.Errorf("Stats due=%d overflow=%d, want 2 and 1", due, overflow)
	}
	// Both banks cleared after both recoveries.
	if status, _, _ := m.ReadBank(0); status != 0 {
		t.Errorf("bank not cleared after redelivery: %#x", status)
	}
}

// TestDisplacedRecordRedelivered covers the other overflow flavor: a stale
// record from a failed delivery is displaced by a newer error and must come
// back through the queue once a handler exists and a bank frees up.
func TestDisplacedRecordRedelivered(t *testing.T) {
	m := New(1)
	_ = m.RaiseMemoryDUE(0x1, 7) // no handler: record stays latched

	var events []Event
	m.Handle(func(ev Event) error {
		events = append(events, ev)
		return nil
	})
	if err := m.RaiseMemoryDUE(0x2, 8); err != nil {
		t.Fatalf("second raise = %v", err)
	}
	// Both the new error and the displaced old record were delivered.
	if len(events) != 2 {
		t.Fatalf("delivered %d events, want 2", len(events))
	}
	if events[0].Addr != 0x2 || events[1].Addr != 0x1 || events[1].Misc != 7 {
		t.Errorf("events = %+v, want 0x2 then displaced 0x1", events)
	}
	for i, ev := range events {
		if ev.Status&StatusOver == 0 {
			t.Errorf("event %d missing overflow bit: %#x", i, ev.Status)
		}
	}
	if m.PendingOverflow() != 0 {
		t.Error("queue not drained")
	}
}

// TestTouchReportsQueued: a demand access that discovers a fault while the
// only bank is mid-delivery reports the fault and ErrQueued, and the event
// is delivered once the bank frees.
func TestTouchReportsQueued(t *testing.T) {
	m := New(1)
	m.Plant(0x20, 1)
	var got []uint64
	m.Handle(func(ev Event) error {
		got = append(got, ev.Addr)
		if ev.Addr == 0x10 {
			if faulted, err := m.Touch(0x20, 8); !faulted || !errors.Is(err, ErrQueued) {
				t.Errorf("Touch mid-delivery = %v, %v; want true, ErrQueued", faulted, err)
			}
		}
		return nil
	})
	if err := m.RaiseMemoryDUE(0x10, 0); err != nil {
		t.Fatalf("first raise = %v", err)
	}
	if len(got) != 2 || got[1] != 0x20 {
		t.Fatalf("delivered %#x, want 0x10 then the queued 0x20", got)
	}
}
