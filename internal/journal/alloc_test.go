//go:build !race

// Allocation assertions are skipped under -race: the race runtime drops
// sync.Pool entries on purpose, so json.Valid's pooled scanner allocates
// where the production build does not.

package journal

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"
)

// TestOpenRecoveryGarbage pins the replay's cost: over 200 k records a
// restart's OpenRecovery makes at most 64 B and 0.1 allocations of garbage
// per record, and still finds exactly the dangling intents.
func TestOpenRecoveryGarbage(t *testing.T) {
	const records = 200_000
	path := filepath.Join(t.TempDir(), "storm.jsonl")
	want := writeStormJournal(t, path, records/2, 3)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, dangling, err := OpenRecovery(path, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if len(dangling) != len(want) {
		t.Fatalf("replay found %d dangling intents, want %d", len(dangling), len(want))
	}
	for i, in := range dangling {
		if in.ID != want[i] || in.Alloc != "field" {
			t.Errorf("dangling[%d] = %+v, want ID %d of alloc field", i, in, want[i])
		}
	}
	n := float64(records + len(want))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("replay garbage: %.2f B and %.4f allocations per record", bytes, allocs)
	if bytes > 64 || allocs > 0.1 {
		t.Errorf("replay made %.2f B and %.4f allocations per record; want <= 64 B and <= 0.1", bytes, allocs)
	}
}

// TestAppendAllocations pins a journal append at zero allocations: the line
// is encoded into the journal's reused buffer and written as it is.
func TestAppendAllocations(t *testing.T) {
	r, _, err := OpenRecovery(filepath.Join(t.TempDir(), "j.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var id uint64
	if n := testing.AllocsPerRun(200, func() {
		if id, err = r.Begin("t0", "field", 0x7f0000000000, 132, math.NaN()); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Begin made %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := r.FinishValue(id, true, "method=Lorenzo 1-Layer stage=primary", math.Float64bits(287.5)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("FinishValue made %v allocations, want 0", n)
	}
}
