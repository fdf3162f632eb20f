//go:build !race

// Allocation assertions are skipped under -race: the race runtime
// instruments map and sync accesses with allocations the production
// build never makes.

package core

import (
	"context"
	"math"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// TestRecoveryAllocations pins the Single and Batch16 BenchmarkRecoveryHotPath
// shapes (the single-element path must not inherit the batch path's per-call
// slices, maps and channel) and a Burst16-shaped row wipe at what they
// allocate.
func TestRecoveryAllocations(t *testing.T) {
	mk := func() (*Engine, *registry.Allocation) {
		eng := NewEngine(Options{Seed: 7})
		a := smoothArray(256, 64)
		return eng, eng.Protect("grid", a, bitflip.Float32, registry.RecoverWith(predict.MethodLorenzo1))
	}

	eng, alloc := mk()
	off := alloc.Array.Offset(128, 32)
	single := func() {
		alloc.Array.SetOffset(off, math.NaN())
		eng.MarkCorrupt(alloc, off)
		if _, err := eng.RecoverElement(alloc, off); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up until the collector's slowest-N ring has settled: a recovery
	// slow enough to enter it allocates its Summary, which is wall-clock
	// luck, not the path under test.
	for i := 0; i < 2000; i++ {
		single()
	}
	if n := testing.AllocsPerRun(200, single); n > 6 {
		t.Errorf("RecoverElement: %v allocs, want <= 6", n)
	}

	// The same recovery entered by address, as an MCE handler does: the
	// registry's descriptor check on the lookup adds nothing.
	eng, alloc = mk()
	addr := alloc.AddrOf(off)
	byAddr := func() {
		alloc.Array.SetOffset(off, math.NaN())
		if _, err := eng.RecoverAddress(addr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		byAddr()
	}
	if n := testing.AllocsPerRun(200, byAddr); n > 6 {
		t.Errorf("RecoverAddress: %v allocs, want <= 6", n)
	}

	eng, alloc = mk()
	offs := make([]int, 16)
	for i := range offs {
		offs[i] = alloc.Array.Offset(8+i*15, (i*7)%64)
	}
	ctx := context.Background()
	batch := func() {
		for _, off := range offs {
			alloc.Array.SetOffset(off, math.NaN())
			eng.MarkCorrupt(alloc, off)
		}
		for _, r := range eng.RecoverBatch(ctx, alloc, offs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		batch()
	}
	// 66 measured; the slack absorbs trace-pool refills after a GC.
	if n := testing.AllocsPerRun(50, batch); n > 68 {
		t.Errorf("16-member RecoverBatch: %v allocs, want <= 68", n)
	}

	// A 16-cell row wipe.
	eng, alloc = mk()
	wipe := make([]int, 16)
	for i := range wipe {
		wipe[i] = alloc.Array.Offset(128, 24+i)
	}
	burst := func() {
		for _, off := range wipe {
			alloc.Array.SetOffset(off, math.NaN())
		}
		if _, err := eng.RecoverBurst(alloc, wipe); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		burst()
	}
	if n := testing.AllocsPerRun(50, burst); n > 19 {
		t.Errorf("16-cell RecoverBurst: %v allocs, want <= 19", n)
	}
}
