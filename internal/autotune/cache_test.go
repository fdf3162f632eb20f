package autotune

import (
	"testing"

	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

func TestCacheHitsSameRegion(t *testing.T) {
	a := planeArray(32, 32)
	env := predict.NewEnv(a, 1)
	c := NewCache(8)
	cfg := Config{K: 3, Tolerance: 0.01, Methods: []predict.Method{predict.MethodZero, predict.MethodLorenzo1}}

	m1, cached1, err := c.Select(env, []int{10, 10}, cfg)
	if err != nil || cached1 {
		t.Fatalf("first select: %v, cached=%v", err, cached1)
	}
	// Same 8x8 region (indices 8-15).
	m2, cached2, err := c.Select(env, []int{12, 14}, cfg)
	if err != nil || !cached2 || m2 != m1 {
		t.Errorf("second select: %v cached=%v method=%v (want %v)", err, cached2, m2, m1)
	}
	// Different region re-tunes.
	_, cached3, err := c.Select(env, []int{25, 25}, cfg)
	if err != nil || cached3 {
		t.Errorf("third select: %v cached=%v", err, cached3)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats = %d/%d, want 1/2", hits, misses)
	}
}

func TestCacheMatchesUncachedChoice(t *testing.T) {
	a := planeArray(24, 24)
	env := predict.NewEnv(a, 1)
	cfg := Config{K: 3, Tolerance: 0.01,
		Methods: []predict.Method{predict.MethodAverage, predict.MethodLorenzo1, predict.MethodZero}}
	direct, err := Select(env, []int{12, 12}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0) // default block
	m, _, err := c.Select(env, []int{12, 12}, cfg)
	if err != nil || m != direct.Best {
		t.Errorf("cache choice %v != direct %v (err %v)", m, direct.Best, err)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	// A degenerate position that errors (1x1 array has no probes) must not
	// poison the cache.
	c := NewCache(4)
	env := predict.NewEnv(ndarray.New(1), 1)
	if _, _, err := c.Select(env, []int{0}, DefaultConfig()); err == nil {
		t.Fatal("expected error on 1-element array")
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Errorf("error polluted stats: %d/%d", hits, misses)
	}
}
