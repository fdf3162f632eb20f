package fti

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/detect"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

func testWorld(t *testing.T, ranks int) *World {
	t.Helper()
	w, err := NewWorld(t.TempDir(), ranks)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// protectGrid protects a deterministic grid on every rank and returns them.
func protectGrids(t *testing.T, w *World, n int) []*ndarray.Array {
	t.Helper()
	grids := make([]*ndarray.Array, w.NumRanks())
	for i := 0; i < w.NumRanks(); i++ {
		g := ndarray.New(n, n)
		rank := i
		g.FillFunc(func(idx []int) float64 {
			return float64(rank*1000 + idx[0]*n + idx[1])
		})
		if err := w.Rank(i).Protect(0, "grid", g, bitflip.Float32, RecoveryPolicy{Any: true}); err != nil {
			t.Fatal(err)
		}
		grids[i] = g
	}
	return grids
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(t.TempDir(), 0); err == nil {
		t.Error("0 ranks accepted")
	}
	w := testWorld(t, 3)
	if w.NumRanks() != 3 {
		t.Errorf("NumRanks = %d", w.NumRanks())
	}
}

func TestProtectDuplicateID(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(4)
	if err := w.Rank(0).Protect(1, "a", g, bitflip.Float32, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Rank(0).Protect(1, "b", g, bitflip.Float32, RecoveryPolicy{}); !errors.Is(err, ErrIDInUse) {
		t.Errorf("duplicate id error = %v, want ErrIDInUse", err)
	}
}

func TestProtectDimsValidation(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(3, 4)
	if err := w.Rank(0).Protect(0, "x", g, bitflip.Float32, RecoveryPolicy{}, 3, 4); err != nil {
		t.Fatalf("matching dims rejected: %v", err)
	}
	if err := w.Rank(0).Protect(1, "y", g, bitflip.Float32, RecoveryPolicy{}, 4, 3); err == nil {
		t.Error("mismatched dims accepted")
	}
	if err := w.Rank(0).Protect(2, "z", g, bitflip.Float32, RecoveryPolicy{}, 12); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestUnprotect(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(4)
	_ = w.Rank(0).Protect(0, "a", g, bitflip.Float32, RecoveryPolicy{})
	if err := w.Rank(0).Unprotect(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Rank(0).Unprotect(0); !errors.Is(err, ErrNotProtected) {
		t.Errorf("double Unprotect error = %v", err)
	}
	if len(w.Rank(0).Datasets()) != 0 {
		t.Error("dataset list not empty after Unprotect")
	}
}

func TestDatasetAccessors(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(4)
	_ = w.Rank(0).Protect(7, "a", g, bitflip.Float64, RecoveryPolicy{Method: predict.MethodLorenzo1})
	ds, err := w.Rank(0).Dataset(7)
	if err != nil || ds.Name != "a" || ds.DType != bitflip.Float64 {
		t.Errorf("Dataset(7) = %+v, %v", ds, err)
	}
	if _, err := w.Rank(0).Dataset(8); !errors.Is(err, ErrNotProtected) {
		t.Errorf("missing dataset error = %v", err)
	}
}

func TestCheckpointRestartRoundTrip(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	// Scribble over the in-memory state, then restart.
	want := make([]*ndarray.Array, len(grids))
	for i, g := range grids {
		want[i] = g.Clone()
		g.Fill(-999)
	}
	lvl, err := w.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if lvl != L1 {
		t.Errorf("restart level = %v, want L1", lvl)
	}
	for i, g := range grids {
		if !ndarray.ApproxEqual(g, want[i], 0) {
			t.Errorf("rank %d grid not restored", i)
		}
	}
}

func TestCheckpointIDMonotonic(t *testing.T) {
	w := testWorld(t, 1)
	protectGrids(t, w, 4)
	if err := w.Checkpoint(5, L1); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(5, L1); err == nil {
		t.Error("repeated checkpoint id accepted")
	}
	if err := w.Checkpoint(3, L1); err == nil {
		t.Error("regressing checkpoint id accepted")
	}
	id, lvl := w.LastCheckpoint()
	if id != 5 || lvl != L1 {
		t.Errorf("LastCheckpoint = %d, %v", id, lvl)
	}
}

func TestCheckpointInvalidLevel(t *testing.T) {
	w := testWorld(t, 1)
	protectGrids(t, w, 4)
	if err := w.Checkpoint(1, Level(0)); err == nil {
		t.Error("level 0 accepted")
	}
	if err := w.Checkpoint(1, Level(9)); err == nil {
		t.Error("level 9 accepted")
	}
}

func TestRestartWithoutCheckpoint(t *testing.T) {
	w := testWorld(t, 1)
	protectGrids(t, w, 4)
	if _, err := w.Restart(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("error = %v, want ErrNoCheckpoint", err)
	}
}

func TestL2PartnerRecovery(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L2); err != nil {
		t.Fatal(err)
	}
	want := grids[1].Clone()
	if err := w.LoseRank(1); err != nil {
		t.Fatal(err)
	}
	grids[1].Fill(0)
	lvl, err := w.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if lvl != L2 {
		t.Errorf("restart level = %v, want L2", lvl)
	}
	if !ndarray.ApproxEqual(grids[1], want, 0) {
		t.Error("lost rank not restored from partner")
	}
}

func TestL2LosingRankAndPartnerFails(t *testing.T) {
	w := testWorld(t, 3)
	protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L2); err != nil {
		t.Fatal(err)
	}
	// Rank 1's partner copy lives on rank 2; losing both kills the data.
	_ = w.LoseRank(1)
	_ = w.LoseRank(2)
	if _, err := w.Restart(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("error = %v, want ErrNoCheckpoint", err)
	}
}

func TestL3ParityRecovery(t *testing.T) {
	w := testWorld(t, 4)
	grids := protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L3); err != nil {
		t.Fatal(err)
	}
	want := grids[2].Clone()
	// Lose rank 2's storage AND its partner copy (which lives on rank 3):
	// only Reed-Solomon parity can rebuild it.
	_ = w.LoseRank(2)
	_ = os.Remove(filepath.Join(w.dir, "rank003", partnerFile(1, 2)))
	grids[2].Fill(0)
	lvl, err := w.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if lvl != L3 {
		t.Errorf("restart level = %v, want L3", lvl)
	}
	if !ndarray.ApproxEqual(grids[2], want, 0) {
		t.Error("lost rank not rebuilt from parity")
	}
}

func TestL3TwoLossesFail(t *testing.T) {
	w := testWorld(t, 4)
	protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L3); err != nil {
		t.Fatal(err)
	}
	// Losing two non-adjacent ranks removes both their local files and, for
	// the pair (0, 1), rank 0's partner copy (on rank 1) — but rank 1's
	// partner copy is on rank 2 and survives; so lose ranks 0 and 3:
	// rank 0's partner copy is on rank 1 (survives)... to defeat all
	// levels, remove local+partner for both.
	_ = w.LoseRank(0)
	_ = w.LoseRank(1) // holds rank 0's partner copy
	_ = w.LoseRank(2) // holds rank 1's partner copy
	if _, err := w.Restart(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("error = %v, want ErrNoCheckpoint", err)
	}
}

func TestL4PFSRecovery(t *testing.T) {
	w := testWorld(t, 2)
	grids := protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L4); err != nil {
		t.Fatal(err)
	}
	want0, want1 := grids[0].Clone(), grids[1].Clone()
	// Lose everything local (both ranks' storage, including partner
	// copies); the PFS still has full copies.
	_ = w.LoseRank(0)
	_ = w.LoseRank(1)
	grids[0].Fill(0)
	grids[1].Fill(0)
	lvl, err := w.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if lvl != L4 {
		t.Errorf("restart level = %v, want L4", lvl)
	}
	if !ndarray.ApproxEqual(grids[0], want0, 0) || !ndarray.ApproxEqual(grids[1], want1, 0) {
		t.Error("PFS restore wrong")
	}
}

func TestCorruptCheckpointDetected(t *testing.T) {
	w := testWorld(t, 1)
	protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(w.dir, "rank000", ckptFile(1))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Restart(); err == nil {
		t.Error("corrupted checkpoint restored without error")
	}
}

func TestRestartRequiresMatchingShape(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(4, 4)
	_ = w.Rank(0).Protect(0, "g", g, bitflip.Float32, RecoveryPolicy{})
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	// Re-protect with a different shape: restore must refuse.
	_ = w.Rank(0).Unprotect(0)
	_ = w.Rank(0).Protect(0, "g", ndarray.New(2, 8), bitflip.Float32, RecoveryPolicy{})
	if _, err := w.Restart(); err == nil {
		t.Error("shape mismatch restored without error")
	}
}

func TestPolicyRoundTripsThroughCheckpoint(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(4)
	pol := RecoveryPolicy{Method: predict.MethodLagrange}
	_ = w.Rank(0).Protect(0, "g", g, bitflip.Float64, pol)
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	// Wipe the in-memory metadata, restore, and check it came back.
	ds, _ := w.Rank(0).Dataset(0)
	ds.Policy = RecoveryPolicy{Any: true}
	ds.DType = bitflip.Float32
	if _, err := w.Restart(); err != nil {
		t.Fatal(err)
	}
	if ds.Policy != pol || ds.DType != bitflip.Float64 {
		t.Errorf("metadata not restored: %+v %v", ds.Policy, ds.DType)
	}
}

func TestPadShards(t *testing.T) {
	blobs := [][]byte{{1, 2, 3}, {4, 5}, nil}
	out := padShards(blobs)
	if len(out[0]) != 3 || len(out[1]) != 3 || out[2] != nil {
		t.Fatalf("padShards = %v", out)
	}
	if out[1][0] != 4 || out[1][2] != 0 {
		t.Errorf("padding wrong: %v", out[1])
	}
	// Copies, not aliases.
	out[0][0] = 9
	if blobs[0][0] != 1 {
		t.Error("padShards aliased its input")
	}
}

func TestL3MultiLossWithExtraParity(t *testing.T) {
	// With 2 Reed-Solomon parity shards, losing two ranks (including their
	// partner copies) is still recoverable from L3.
	w := testWorld(t, 4)
	if err := w.SetParityShards(2); err != nil {
		t.Fatal(err)
	}
	grids := protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L3); err != nil {
		t.Fatal(err)
	}
	want1, want2 := grids[1].Clone(), grids[2].Clone()
	// Lose ranks 1 and 2 plus the partner copies of both (rank 2 holds
	// rank 1's partner copy — already gone; rank 3 holds rank 2's).
	_ = w.LoseRank(1)
	_ = w.LoseRank(2)
	_ = os.Remove(filepath.Join(w.dir, "rank003", partnerFile(1, 2)))
	grids[1].Fill(0)
	grids[2].Fill(0)
	lvl, err := w.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if lvl != L3 {
		t.Errorf("restart level = %v, want L3", lvl)
	}
	if !ndarray.ApproxEqual(grids[1], want1, 0) || !ndarray.ApproxEqual(grids[2], want2, 0) {
		t.Error("multi-loss parity reconstruction wrong")
	}
}

func TestSetParityShardsValidation(t *testing.T) {
	w := testWorld(t, 2)
	if err := w.SetParityShards(0); err == nil {
		t.Error("m=0 accepted")
	}
	if err := w.SetParityShards(254); err == nil {
		t.Error("k+m>255 accepted")
	}
	if err := w.SetParityShards(3); err != nil {
		t.Errorf("valid parity count rejected: %v", err)
	}
}

func TestSDCCheckForwardRecovers(t *testing.T) {
	w := testWorld(t, 2)
	grids := make([]*ndarray.Array, 2)
	for i := 0; i < 2; i++ {
		g := ndarray.New(16, 16)
		g.FillFunc(func(idx []int) float64 { return 20 + float64(idx[0]) + 2*float64(idx[1]) })
		_ = w.Rank(i).Protect(0, "g", g, bitflip.Float32, RecoveryPolicy{Method: predict.MethodLorenzo1})
		grids[i] = g
	}
	// Corrupt one element on rank 1.
	off := grids[1].Offset(8, 8)
	orig := grids[1].AtOffset(off)
	grids[1].SetOffset(off, 1e12)

	det := &detect.SpatialDetector{Theta: 10}
	rep := RepairFunc(func(ds *Dataset, o int) (float64, error) {
		idx := ds.Array.Coords(o)
		return predict.New(ds.Policy.Method).Predict(predict.NewEnv(ds.Array, 1), idx)
	})
	report, err := w.SDCCheck(det, rep)
	if err != nil {
		t.Fatal(err)
	}
	if report.DatasetsChecked != 2 || report.Repaired < 1 || report.RolledBack {
		t.Errorf("report = %+v", report)
	}
	if got := grids[1].AtOffset(off); math.Abs(got-orig) > 1e-6*math.Abs(orig) {
		t.Errorf("repair = %v, want ~%v", got, orig)
	}
}

func TestSDCCheckRollsBackOnRepairFailure(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(8, 8)
	g.FillFunc(func(idx []int) float64 { return 5 + float64(idx[0]+idx[1]) })
	_ = w.Rank(0).Protect(0, "g", g, bitflip.Float32, RecoveryPolicy{})
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	want := g.Clone()
	g.SetOffset(10, 1e20)

	det := &detect.SpatialDetector{Theta: 10}
	failing := RepairFunc(func(*Dataset, int) (float64, error) {
		return 0, errors.New("cannot repair")
	})
	report, err := w.SDCCheck(det, failing)
	if err != nil {
		t.Fatal(err)
	}
	if !report.RolledBack || report.RestartLevel != L1 {
		t.Errorf("report = %+v, want rollback at L1", report)
	}
	if !ndarray.ApproxEqual(g, want, 0) {
		t.Error("rollback did not restore the state")
	}
}

func TestSDCCheckRepairFailureWithoutCheckpoint(t *testing.T) {
	w := testWorld(t, 1)
	g := ndarray.New(8, 8)
	g.FillFunc(func(idx []int) float64 { return 5 + float64(idx[0]+idx[1]) })
	_ = w.Rank(0).Protect(0, "g", g, bitflip.Float32, RecoveryPolicy{})
	g.SetOffset(10, 1e20)
	failing := RepairFunc(func(*Dataset, int) (float64, error) {
		return 0, errors.New("cannot repair")
	})
	if _, err := w.SDCCheck(&detect.SpatialDetector{Theta: 10}, failing); err == nil {
		t.Error("unrepairable corruption without checkpoint must error")
	}
}

func TestYoungModel(t *testing.T) {
	// sqrt(2 * 60 * 86400) ~ 3220.
	got := OptimalInterval(60, 86400)
	if math.Abs(got-3220.2) > 0.5 {
		t.Errorf("OptimalInterval = %v", got)
	}
	if OptimalInterval(0, 100) != 0 || OptimalInterval(100, 0) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
	if ExpectedLostWork(100) != 50 {
		t.Error("ExpectedLostWork wrong")
	}
	if CheckpointOverheadFraction(10, 100) != 0.1 {
		t.Error("CheckpointOverheadFraction wrong")
	}
	if CheckpointOverheadFraction(10, 0) != 0 {
		t.Error("zero interval should yield 0")
	}
	if got := RecoverySpeedup(0.001, 3220); math.Abs(got-1610000) > 1e4 {
		t.Errorf("RecoverySpeedup = %v", got)
	}
	if !math.IsInf(RecoverySpeedup(0, 100), 1) {
		t.Error("zero-cost recovery speedup should be +Inf")
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L4.String() != "L4" {
		t.Error("Level strings wrong")
	}
}

// corruptFile flips one byte in the middle of the file at path, simulating
// latent media corruption (the file stays present and the same size).
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptL1FallsBackToPartner: a latently corrupted L1 blob must be
// detected by the CRC on restart and restored from the partner copy — which
// therefore has to hold independent bytes, not a hard link of the damaged
// L1 inode.
func TestCorruptL1FallsBackToPartner(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L2); err != nil {
		t.Fatal(err)
	}
	want := grids[1].Clone()
	corruptFile(t, filepath.Join(w.rankDir(1), ckptFile(1)))
	grids[1].Fill(0)
	lvl, err := w.Restart()
	if err != nil {
		t.Fatalf("restart over corrupt L1 blob: %v", err)
	}
	if lvl != L2 {
		t.Errorf("restart level = %v, want L2", lvl)
	}
	if !ndarray.ApproxEqual(grids[1], want, 0) {
		t.Error("corrupt rank not restored from partner copy")
	}
}

// TestCorruptL1AndPartnerReconstructsFromParity: with both the L1 blob and
// the partner copy corrupted, an L4 checkpoint's PFS copy shares the L1
// inode (hard link) and is corrupt too — only the Reed-Solomon parity holds
// independent bytes, so restart must reconstruct from it.
func TestCorruptL1AndPartnerReconstructsFromParity(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 8)
	if err := w.Checkpoint(1, L4); err != nil {
		t.Fatal(err)
	}
	want := grids[2].Clone()
	corruptFile(t, filepath.Join(w.rankDir(2), ckptFile(1)))
	corruptFile(t, filepath.Join(w.rankDir(w.partner(2)), partnerFile(1, 2)))
	grids[2].Fill(0)
	lvl, err := w.Restart()
	if err != nil {
		t.Fatalf("restart over corrupt L1+L2 copies: %v", err)
	}
	if lvl < L3 {
		t.Errorf("restart level = %v, want >= L3 (parity reconstruction)", lvl)
	}
	if !ndarray.ApproxEqual(grids[2], want, 0) {
		t.Error("corrupt rank not reconstructed from parity")
	}
}

// TestRestartIsAllOrNothing: a Restart refused for one rank writes no
// array on any rank, so the world is never left with arrays from mixed
// timesteps.
func TestRestartIsAllOrNothing(t *testing.T) {
	w := testWorld(t, 2)
	grids := protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	// Rank 0 moves past the checkpoint; rank 1 re-protects a new shape.
	grids[0].Fill(-7)
	_ = w.Rank(1).Unprotect(0)
	g1 := ndarray.New(2, 8)
	g1.Fill(3)
	if err := w.Rank(1).Protect(0, "grid", g1, bitflip.Float32, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	before0, before1 := grids[0].Clone(), g1.Clone()
	if _, err := w.Restart(); err == nil {
		t.Fatal("Restart accepted a mismatched shape")
	}
	for i, pair := range [][2]*ndarray.Array{{grids[0], before0}, {g1, before1}} {
		for off := 0; off < pair[0].Len(); off++ {
			if math.Float64bits(pair[0].AtOffset(off)) != math.Float64bits(pair[1].AtOffset(off)) {
				t.Fatalf("rank %d offset %d changed by a refused Restart: %v, was %v",
					i, off, pair[0].AtOffset(off), pair[1].AtOffset(off))
			}
		}
	}
}
