//go:build !race

// Allocation assertions are skipped under -race: the race runtime
// instruments map and sync accesses with allocations the production
// build never makes.

package autotune

import (
	"testing"

	"spatialdue/internal/predict"
	"spatialdue/internal/sdrbench"
)

// TestSelectAllocations bounds what one tuning run allocates: on a warm Env
// the returned scores are all it needs, and even a fresh Env (what the engine
// builds per recovery) stays within a dozen — the closure-based patch walk
// this replaced cost ~900 per run on the same 3-D site.
func TestSelectAllocations(t *testing.T) {
	a := sdrbench.Generate(sdrbench.Isabel, "Pf48", sdrbench.ScaleSmall).Array
	idx := []int{10, 25, 25}
	masked := offsetMask{a.Offset(idx...)}
	shared := predict.NewSharedStats(a)
	shared.Exclude(masked...)
	newEnv := func() *predict.Env {
		env := predict.NewEnv(a, 1)
		env.SetShared(shared)
		env.SetMaskSource(masked)
		return env
	}
	tune := func(env *predict.Env) {
		if _, err := Select(env, idx, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}

	warm := newEnv()
	tune(warm)
	if n := testing.AllocsPerRun(20, func() { tune(warm) }); n > 1 {
		t.Errorf("Select on a warm Env: %v allocs, want <= 1 (the scores)", n)
	}
	// A fresh Env costs 3 allocations itself (Env, rand source, rand.Rand).
	if n := testing.AllocsPerRun(20, func() { tune(newEnv()) }); n > 3+12 {
		t.Errorf("Select on a fresh Env: %v allocs including the Env's 3, want <= 15", n)
	}
}
