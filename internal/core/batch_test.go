package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// batchFixture builds one engine over a tall smooth field (many stripes)
// with the given recovery policy.
func batchFixture(seed int64, policy registry.Policy) (*Engine, *ndarray.Array, *registry.Allocation) {
	return batchFixtureOpts(Options{Seed: seed}, policy)
}

// batchFixtureOpts is batchFixture with the engine options spelled out.
func batchFixtureOpts(opts Options, policy registry.Policy) (*Engine, *ndarray.Array, *registry.Allocation) {
	eng := NewEngine(opts)
	a := ndarray.New(120, 24)
	a.FillFunc(func(idx []int) float64 {
		return 30 + 5*math.Sin(float64(idx[0])/5) + 3*math.Cos(float64(idx[1])/4)
	})
	alloc := eng.Protect("grid", a, bitflip.Float32, policy)
	return eng, a, alloc
}

// corruptAndMark flips every offset to garbage and pre-quarantines it in
// submission order — the service intake pattern the batch equivalence
// contract is stated for.
func corruptAndMark(eng *Engine, alloc *registry.Allocation, offs []int) {
	for _, off := range offs {
		alloc.Array.SetOffset(off, math.NaN())
	}
	for _, off := range offs {
		eng.MarkCorrupt(alloc, off)
	}
}

// stormOffsets is the canonical equivalence workload: an adjacent pair in
// stripe 0 (the second member must see the first repaired), a run crossing
// a stripe boundary (rows 10-12 chain stripes 0 and 1 into one cluster),
// and two far, independent clusters.
func stormOffsets(a *ndarray.Array) []int {
	return []int{
		a.Offset(5, 7), a.Offset(5, 8), // adjacent pair, stripe 0
		a.Offset(10, 3), a.Offset(11, 3), a.Offset(12, 3), // boundary run
		a.Offset(60, 12), a.Offset(61, 12), // mid-field cluster
		a.Offset(115, 20), // far cluster
	}
}

// TestRecoverBatchMatchesSequential proves the equivalence contract: for
// pre-quarantined offsets, RecoverBatch produces bit-identical array
// contents, values, and outcome metadata to recovering the same offsets
// sequentially in submission order. It holds with the tune cache off (0,
// the library default) and on (8, what bench/ and duerecover run).
func TestRecoverBatchMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy registry.Policy
	}{
		{"fixed-average", registry.RecoverWith(predict.MethodAverage)},
		{"fixed-lorenzo", registry.RecoverWith(predict.MethodLorenzo1)},
		{"recover-any", registry.RecoverAny()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tune := range []int{0, 8} {
				t.Run(fmt.Sprintf("tune%d", tune), func(t *testing.T) {
					opts := Options{Seed: 42, TuneCacheBlock: tune}
					engSeq, aSeq, allocSeq := batchFixtureOpts(opts, tc.policy)
					engBat, aBat, allocBat := batchFixtureOpts(opts, tc.policy)
					offs := stormOffsets(aSeq)
					corruptAndMark(engSeq, allocSeq, offs)
					corruptAndMark(engBat, allocBat, offs)

					outs := make([]Outcome, len(offs))
					errs := make([]error, len(offs))
					for i, off := range offs {
						outs[i], errs[i] = engSeq.RecoverElement(allocSeq, off)
					}
					results := engBat.RecoverBatch(context.Background(), allocBat, offs)

					for i := range offs {
						r := results[i]
						if (errs[i] == nil) != (r.Err == nil) {
							t.Fatalf("member %d: sequential err %v, batch err %v", i, errs[i], r.Err)
						}
						if errs[i] != nil {
							continue
						}
						if r.Outcome.Method != outs[i].Method || r.Outcome.Stage != outs[i].Stage || r.Outcome.Tuned != outs[i].Tuned {
							t.Errorf("member %d: batch outcome %+v, sequential %+v", i, r.Outcome, outs[i])
						}
						if math.Float64bits(r.Outcome.New) != math.Float64bits(outs[i].New) {
							t.Errorf("member %d: batch value %x, sequential %x",
								i, math.Float64bits(r.Outcome.New), math.Float64bits(outs[i].New))
						}
					}
					for off := 0; off < aSeq.Len(); off++ {
						if math.Float64bits(aSeq.AtOffset(off)) != math.Float64bits(aBat.AtOffset(off)) {
							t.Fatalf("array diverges at offset %d: sequential %x, batch %x",
								off, math.Float64bits(aSeq.AtOffset(off)), math.Float64bits(aBat.AtOffset(off)))
						}
					}
					if n := engBat.QuarantineCount(); n != engSeq.QuarantineCount() {
						t.Errorf("quarantine count %d, sequential %d", n, engSeq.QuarantineCount())
					}
				})
			}
		})
	}
}

// TestRecoverBatchDeterministic runs the same batch on two identical
// engines and requires bit-identical results — concurrency across clusters
// must not leak scheduling into values.
func TestRecoverBatchDeterministic(t *testing.T) {
	for run := 0; run < 3; run++ {
		eng1, a1, alloc1 := batchFixture(9, registry.RecoverAny())
		eng2, a2, alloc2 := batchFixture(9, registry.RecoverAny())
		offs := stormOffsets(a1)
		corruptAndMark(eng1, alloc1, offs)
		corruptAndMark(eng2, alloc2, offs)
		r1 := eng1.RecoverBatch(context.Background(), alloc1, offs)
		r2 := eng2.RecoverBatch(context.Background(), alloc2, offs)
		for i := range offs {
			if (r1[i].Err == nil) != (r2[i].Err == nil) ||
				math.Float64bits(r1[i].Outcome.New) != math.Float64bits(r2[i].Outcome.New) {
				t.Fatalf("run %d member %d: %+v vs %+v", run, i, r1[i], r2[i])
			}
		}
		for off := 0; off < a1.Len(); off++ {
			if math.Float64bits(a1.AtOffset(off)) != math.Float64bits(a2.AtOffset(off)) {
				t.Fatalf("run %d: arrays diverge at %d", run, off)
			}
		}
	}
}

// TestRecoverBatchOutOfRange: invalid members fail with the sequential
// path's error while the rest of the batch recovers.
func TestRecoverBatchOutOfRange(t *testing.T) {
	eng, a, alloc := batchFixture(3, registry.RecoverWith(predict.MethodAverage))
	good := a.Offset(30, 5)
	corruptAndMark(eng, alloc, []int{good})
	results := eng.RecoverBatch(context.Background(), alloc, []int{-1, good, a.Len()})
	if results[0].Err == nil || results[2].Err == nil {
		t.Fatalf("out-of-range members did not fail: %+v", results)
	}
	if results[1].Err != nil {
		t.Fatalf("valid member failed: %v", results[1].Err)
	}
	if n := eng.QuarantineCount(); n != 0 {
		t.Errorf("quarantine not empty: %d", n)
	}
}

// TestRecoverBatchAbandon: an already-expired context abandons every
// member without losing results or leaking cluster goroutines.
func TestRecoverBatchAbandon(t *testing.T) {
	eng, a, alloc := batchFixture(5, registry.RecoverWith(predict.MethodAverage))
	offs := []int{a.Offset(5, 5), a.Offset(60, 5)}
	corruptAndMark(eng, alloc, offs)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := eng.RecoverBatch(ctx, alloc, offs)
	for i, r := range results {
		if r.Err == nil {
			// A cluster may win the race and finish before the collector
			// observes cancellation; a completed member is also correct.
			continue
		}
		if !errorsIs(r.Err, ErrRecoveryAbandoned) {
			t.Errorf("member %d: err %v, want ErrRecoveryAbandoned", i, r.Err)
		}
	}
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestRecoverBatchStress hammers one array with concurrent batches on
// disjoint stripe sets, an adjacent-stripe batch, and a full-array writer
// (WithArrayLock + FieldUpdated) — run under -race this is the data-race
// acceptance test for the stripe-locking design.
func TestRecoverBatchStress(t *testing.T) {
	eng, a, alloc := batchFixture(13, registry.RecoverWith(predict.MethodAverage))

	// Four disjoint batches: far-apart stripe bands plus one batch that
	// straddles a stripe boundary (adjacent stripes serialize internally).
	batches := [][]int{
		{a.Offset(2, 2), a.Offset(3, 2), a.Offset(4, 19)},
		{a.Offset(40, 4), a.Offset(41, 4)},
		{a.Offset(75, 8), a.Offset(76, 9), a.Offset(77, 10)},
		{a.Offset(110, 15), a.Offset(111, 15), a.Offset(112, 16)},
	}
	for _, offs := range batches {
		corruptAndMark(eng, alloc, offs)
	}

	var wg sync.WaitGroup
	for _, offs := range batches {
		wg.Add(1)
		go func(offs []int) {
			defer wg.Done()
			for i, r := range eng.RecoverBatch(context.Background(), alloc, offs) {
				if r.Err != nil {
					t.Errorf("batch member %d (offset %d): %v", i, r.Offset, r.Err)
				}
			}
		}(offs)
	}
	// Full-array reader/writer: snapshots the field and writes it back
	// unchanged under every stripe lock, then rebuilds the shared
	// statistics — the upload path racing the storm.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			snap := make([]float64, a.Len())
			eng.WithArrayLock(a, func() {
				copy(snap, a.Data())
				copy(a.Data(), snap)
			})
			eng.FieldUpdated(a)
		}
	}()
	wg.Wait()

	if n := eng.QuarantineCount(); n != 0 {
		t.Errorf("quarantine not empty after stress: %d", n)
	}
}
