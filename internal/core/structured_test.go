package core

import (
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// Structured-fault survival at the engine level: the interaction between
// mass quarantine (a whole stripe dead) and the shared-statistics rebuild of
// FieldUpdated.

func TestFieldUpdatedReadmitsMassQuarantinedStripe(t *testing.T) {
	// A row failure takes out an entire stripe (with default options a
	// stripe is Tune.K + MaxStencilReach = 11 rows tall). Every cell is
	// quarantined and excluded from the shared statistics. A field upload
	// plus FieldUpdated must keep the still-quarantined cells excluded from
	// the rebuilt snapshot; only once they leave quarantine (the service's
	// rejection/readmission path) may their values re-enter the statistics.
	eng := NewEngine(Options{Seed: 12})
	a := smoothArray(33, 16)
	alloc := eng.Protect("g", a, bitflip.Float32, registry.RecoverWith(predict.MethodAverage))
	shared := eng.stateFor(a).shared

	ss := eng.stateFor(a)
	if ss.rows != 11 {
		t.Fatalf("stripe height = %d rows, test assumes 11", ss.rows)
	}
	var wiped []int
	for r := 11; r < 22; r++ { // exactly stripe 1
		for c := 0; c < 16; c++ {
			wiped = append(wiped, a.Offset(r, c))
		}
	}
	for _, off := range wiped {
		eng.MarkCorrupt(alloc, off)
	}
	for _, off := range wiped {
		if !shared.Excluded(off) {
			t.Fatalf("offset %d quarantined but not excluded", off)
		}
	}

	// Field upload: fresh contents everywhere, with a sentinel maximum
	// inside the wiped stripe that must stay invisible to the statistics
	// while the stripe is quarantined.
	const sentinel = 1e6
	eng.WithArrayLock(a, func() {
		for off := 0; off < a.Len(); off++ {
			a.SetOffset(off, float64(off%7))
		}
		a.Set(sentinel, 15, 5)
	})
	eng.FieldUpdated(a)

	for _, off := range wiped {
		if !shared.Excluded(off) {
			t.Fatalf("offset %d readmitted by FieldUpdated while still quarantined", off)
		}
	}
	if _, max := shared.Range(); max >= sentinel {
		t.Fatalf("range max %v includes a quarantined cell's value", max)
	}

	// The upload repaired the data, so the service clears the quarantine;
	// deferred readmission must restore every cell's (post-upload) snapshot
	// contribution, sentinel included.
	for _, off := range wiped {
		eng.ClearCorrupt(alloc, off)
	}
	if n := shared.ExcludedCount(); n != 0 {
		t.Fatalf("%d cells still excluded after readmission", n)
	}
	if _, max := shared.Range(); max != sentinel {
		t.Errorf("range max = %v after readmission, want %v", max, sentinel)
	}

	// And the stripe is fully usable again: a recovery inside it succeeds.
	target := a.Offset(16, 8)
	orig := a.AtOffset(target)
	a.SetOffset(target, 1e30)
	out, err := eng.RecoverElement(alloc, target)
	if err != nil {
		t.Fatalf("recovery inside readmitted stripe: %v", err)
	}
	if re := bitflip.RelErr(orig, out.New); re > 0.5 {
		t.Errorf("rel err %v recovering inside readmitted stripe", re)
	}
}
