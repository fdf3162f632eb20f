package autotune

import (
	"errors"
	"sync"
	"testing"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

// TestSelectAllProbelessErrNoProbes: probe points exist but every stencil
// input around them is masked (the mass-quarantined row-wipe shape), so no
// candidate method produces a single prediction. Select must refuse with
// ErrNoProbes instead of ranking zero-evidence scores by method enum.
func TestSelectAllProbelessErrNoProbes(t *testing.T) {
	a := planeArray(8, 8)
	env := predict.NewEnv(a, 1)
	// Mask everything except one probe (4,5): the probe is collected, but
	// its own stencil inputs — including the quarantined target (4,4) —
	// are all masked, so stencil methods cannot predict it.
	var masked []int
	for off := 0; off < a.Len(); off++ {
		if off != a.Offset(4, 5) {
			masked = append(masked, off)
		}
	}
	env.Mask(masked...)
	_, err := Select(env, []int{4, 4}, Config{K: 1, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}})
	if !errors.Is(err, ErrNoProbes) {
		t.Fatalf("err = %v, want ErrNoProbes", err)
	}
}

// TestCacheTTLExpiry: a region policy with TTLUses expires the entry after
// that many served hits, forcing a deterministic re-tune (counted in uses,
// never wall time).
func TestCacheTTLExpiry(t *testing.T) {
	a := planeArray(16, 16)
	env := predict.NewEnv(a, 1)
	c := NewCache(8)
	c.SetPolicyFunc(func(int) Policy { return Policy{TTLUses: 2} })
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}

	if _, cached, err := c.Select(env, []int{4, 4}, cfg); err != nil || cached {
		t.Fatalf("first: cached=%v err=%v", cached, err)
	}
	for i := 0; i < 2; i++ { // two hits consume the TTL
		if _, cached, err := c.Select(env, []int{4, 5}, cfg); err != nil || !cached {
			t.Fatalf("hit %d: cached=%v err=%v", i, cached, err)
		}
	}
	if _, cached, err := c.Select(env, []int{4, 6}, cfg); err != nil || cached {
		t.Fatalf("post-TTL: cached=%v err=%v, want fresh tune", cached, err)
	}
	st := c.Counters()
	if st.Expiries != 1 || st.Misses != 2 || st.Hits != 2 {
		t.Errorf("counters = %+v, want 1 expiry, 2 misses, 2 hits", st)
	}
}

// TestCacheUpdateCorrectsStaleEntry: Update replaces a region's cached
// method in place — the verify-failure correction path.
func TestCacheUpdateCorrectsStaleEntry(t *testing.T) {
	a := planeArray(16, 16)
	env := predict.NewEnv(a, 1)
	c := NewCache(8)
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}
	if _, _, err := c.Select(env, []int{4, 4}, cfg); err != nil {
		t.Fatal(err)
	}
	c.Update([]int{4, 7}, predict.MethodLagrange, []Score{
		{Method: predict.MethodLagrange, Hits: 9, Probes: 10, MeanRelErr: 0.001},
	})
	m, cached, err := c.Select(env, []int{4, 4}, cfg)
	if err != nil || !cached || m != predict.MethodLagrange {
		t.Fatalf("post-update select = %v cached=%v err=%v, want Lagrange hit", m, cached, err)
	}
	if st := c.Counters(); st.Corrections != 1 {
		t.Errorf("corrections = %d, want 1", st.Corrections)
	}
}

// TestCacheInvalidateRegions: dropping regions {1} must re-tune only band 1
// and preserve bands 0 and 2 — the stripe-granular upload invalidation.
func TestCacheInvalidateRegions(t *testing.T) {
	a := planeArray(32, 32)
	env := predict.NewEnv(a, 1)
	c := NewCache(8)
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}
	for _, row := range []int{4, 12, 20} { // regions 0, 1, 2
		if _, _, err := c.Select(env, []int{row, 8}, cfg); err != nil {
			t.Fatal(err)
		}
	}
	c.InvalidateRegions([]int{1, 7}) // 7 does not exist: no-op, not counted

	if _, cached, _ := c.Select(env, []int{4, 9}, cfg); !cached {
		t.Errorf("region 0 lost its entry")
	}
	if _, cached, _ := c.Select(env, []int{20, 9}, cfg); !cached {
		t.Errorf("region 2 lost its entry")
	}
	if _, cached, _ := c.Select(env, []int{12, 9}, cfg); cached {
		t.Errorf("region 1 kept its entry across invalidation")
	}
	if st := c.Counters(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (absent regions not counted)", st.Invalidations)
	}
}

// TestCacheRegionFuncOverride: the engine maps indices to lock stripes; the
// cache must honor the installed mapping instead of its block default.
func TestCacheRegionFuncOverride(t *testing.T) {
	a := planeArray(32, 32)
	env := predict.NewEnv(a, 1)
	c := NewCache(8)
	c.SetRegionFunc(func(idx []int) int { return idx[0] / 16 }) // 2 fat stripes
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}
	if _, _, err := c.Select(env, []int{2, 2}, cfg); err != nil {
		t.Fatal(err)
	}
	// Row 12 is a different block-8 band but the same 16-row stripe.
	if _, cached, _ := c.Select(env, []int{12, 20}, cfg); !cached {
		t.Errorf("stripe mapping ignored: row 12 missed")
	}
	if r := c.Region([]int{17, 0}); r != 1 {
		t.Errorf("Region(17) = %d, want 1", r)
	}
}

// TestCacheBiasBreaksNearTie: on a plane both Average and Lorenzo1 are
// exact (hit rate 1.0) and the enum tie-break picks Average; a region
// policy biased toward Lorenzo1 (its historical best) must win the tie.
func TestCacheBiasBreaksNearTie(t *testing.T) {
	a := planeArray(16, 16)
	env := predict.NewEnv(a, 1)
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}

	plain := NewCache(8)
	m0, _, err := plain.Select(env, []int{8, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m0 != predict.MethodAverage {
		t.Fatalf("unbiased winner = %v, want Average (enum tie-break)", m0)
	}

	biased := NewCache(8)
	biased.SetPolicyFunc(func(int) Policy {
		return Policy{Bias: predict.MethodLorenzo1, BiasOK: true}
	})
	m1, _, err := biased.Select(env, []int{8, 8}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != predict.MethodLorenzo1 {
		t.Errorf("biased winner = %v, want Lorenzo1", m1)
	}
}

// TestCacheSingleflight: N concurrent misses on one region must run the
// tuner exactly once — followers wait for the leader instead of burning
// duplicate probe sweeps (run under -race in the spatial CI suite).
func TestCacheSingleflight(t *testing.T) {
	const n = 16
	a := planeArray(32, 32)
	c := NewCache(8)
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}

	// The policy hook runs at Select entry, before the cache lock: use it
	// as a rendezvous so all n goroutines pass the lookup simultaneously.
	var ready sync.WaitGroup
	ready.Add(n)
	c.SetPolicyFunc(func(int) Policy {
		ready.Done()
		ready.Wait()
		return Policy{}
	})

	var wg sync.WaitGroup
	methods := make([]predict.Method, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-goroutine Env: Env itself is not concurrency-safe.
			env := predict.NewEnv(a, 1)
			methods[i], _, errs[i] = c.Select(env, []int{4, 4 + i%8}, cfg)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if methods[i] != methods[0] {
			t.Errorf("goroutine %d got %v, leader chose %v", i, methods[i], methods[0])
		}
	}
	st := c.Counters()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 tuner run for %d concurrent selects", st.Misses, n)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Errorf("hits+coalesced = %d+%d, want %d", st.Hits, st.Coalesced, n-1)
	}
}

// TestCacheCoalescedErrorPropagates: followers of a failed leader tune get
// the leader's error, and nothing is cached or counted.
func TestCacheCoalescedErrorPropagates(t *testing.T) {
	c := NewCache(4)
	a := ndarray.New(1)
	const n = 4
	var ready sync.WaitGroup
	ready.Add(n)
	c.SetPolicyFunc(func(int) Policy {
		ready.Done()
		ready.Wait()
		return Policy{}
	})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			env := predict.NewEnv(a, 1)
			_, _, errs[i] = c.Select(env, []int{0}, DefaultConfig())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrNoProbes) {
			t.Errorf("goroutine %d: err = %v, want ErrNoProbes", i, err)
		}
	}
	st := c.Counters()
	if st.Hits != 0 || st.Misses != 0 || st.Coalesced != 0 {
		t.Errorf("error run polluted counters: %+v", st)
	}
}

func BenchmarkTuneCacheHit(b *testing.B) {
	a := planeArray(32, 32)
	env := predict.NewEnv(a, 1)
	c := NewCache(8)
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1}}
	idx := []int{4, 4}
	if _, _, err := c.Select(env, idx, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, _ := c.Select(env, idx, cfg); !cached {
			b.Fatal("unexpected miss")
		}
	}
}
