package fti

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/ndarray"
)

func TestRestoreElementFromLocal(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}

	// The application keeps computing: memory moves past the checkpoint.
	off := grids[1].Offset(2, 3)
	want := grids[1].AtOffset(off) // 1000 + 2*4 + 3
	grids[1].SetOffset(off, -1)

	got, err := w.RestoreElement(1, grids[1], off)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RestoreElement = %v, want checkpointed %v", got, want)
	}
	// Restore is read-only: in-memory state is untouched.
	if grids[1].AtOffset(off) != -1 {
		t.Error("RestoreElement modified memory")
	}
}

func TestRestoreElementFromPartnerCopy(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L2); err != nil {
		t.Fatal(err)
	}
	if err := w.LoseRank(0); err != nil {
		t.Fatal(err)
	}
	got, err := w.RestoreElement(0, grids[0], 5)
	if err != nil {
		t.Fatalf("partner-copy restore failed: %v", err)
	}
	if got != 5 { // rank 0: value == offset
		t.Errorf("RestoreElement = %v, want 5", got)
	}
}

func TestRestoreElementFromParity(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L3); err != nil {
		t.Fatal(err)
	}
	// Lose rank 1's local file AND its partner copy (held by rank 2): only
	// Reed-Solomon reconstruction from the survivors plus parity remains.
	if err := w.LoseRank(1); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(w.dir, "rank002", partnerFile(1, 1))); err != nil {
		t.Fatal(err)
	}
	off := grids[1].Offset(3, 1)
	got, err := w.RestoreElement(1, grids[1], off)
	if err != nil {
		t.Fatalf("parity restore failed: %v", err)
	}
	if want := float64(1000 + 3*4 + 1); got != want {
		t.Errorf("RestoreElement = %v, want %v", got, want)
	}
}

func TestRestoreElementSkipsOtherDatasets(t *testing.T) {
	w := testWorld(t, 1)
	a := ndarray.New(8)
	b := ndarray.New(6)
	for i := 0; i < 8; i++ {
		a.SetOffset(i, float64(100+i))
	}
	for i := 0; i < 6; i++ {
		b.SetOffset(i, float64(200+i))
	}
	if err := w.Rank(0).Protect(0, "a", a, bitflip.Float64, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Rank(0).Protect(1, "b", b, bitflip.Float64, RecoveryPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	// Extracting from the second dataset walks over the first one's payload.
	got, err := w.RestoreElement(0, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 204 {
		t.Errorf("RestoreElement(b, 4) = %v, want 204", got)
	}
}

func TestRestoreElementErrors(t *testing.T) {
	w := testWorld(t, 2)
	grids := protectGrids(t, w, 4)

	// Before any checkpoint exists.
	if _, err := w.RestoreElement(0, grids[0], 0); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("no-checkpoint error = %v, want ErrNoCheckpoint", err)
	}
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	// Unprotected array.
	stranger := ndarray.New(4, 4)
	if _, err := w.RestoreElement(0, stranger, 0); !errors.Is(err, ErrElementUnavailable) {
		t.Errorf("unprotected-array error = %v, want ErrElementUnavailable", err)
	}
	// Offset out of range.
	if _, err := w.RestoreElement(0, grids[0], grids[0].Len()); !errors.Is(err, ErrElementUnavailable) {
		t.Errorf("bad-offset error = %v, want ErrElementUnavailable", err)
	}
	// Bad rank.
	if _, err := w.RestoreElement(9, grids[0], 0); !errors.Is(err, ErrElementUnavailable) {
		t.Errorf("bad-rank error = %v, want ErrElementUnavailable", err)
	}
	// Local file and every redundancy lost (L1 keeps no copies).
	if err := w.LoseRank(1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RestoreElement(1, grids[1], 0); err == nil {
		t.Error("restore with all copies lost succeeded")
	}
}

// TestRestoreElementCorruptL1FromPartner: a latently corrupted L1 blob
// fails its CRC, and the element comes from the partner copy, as Restart's
// rank does in TestCorruptL1FallsBackToPartner.
func TestRestoreElementCorruptL1FromPartner(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L2); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(w.rankDir(1), ckptFile(1)))
	off := grids[1].Offset(2, 1)
	got, err := w.RestoreElement(1, grids[1], off)
	if err != nil {
		t.Fatalf("restore over a corrupt L1 blob: %v", err)
	}
	if want := float64(1000 + 2*4 + 1); got != want {
		t.Errorf("RestoreElement = %v, want %v", got, want)
	}
}

// TestRestoreElementCorruptL1AndPartnerFromParity: the setup of
// TestCorruptL1AndPartnerReconstructsFromParity. The PFS copy shares the
// corrupt L1 inode, so only Reed-Solomon parity still holds the element.
func TestRestoreElementCorruptL1AndPartnerFromParity(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L4); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(w.rankDir(2), ckptFile(1)))
	corruptFile(t, filepath.Join(w.rankDir(w.partner(2)), partnerFile(1, 2)))
	off := grids[2].Offset(3, 2)
	got, err := w.RestoreElement(2, grids[2], off)
	if err != nil {
		t.Fatalf("restore over corrupt L1+L2 copies: %v", err)
	}
	if want := float64(2000 + 3*4 + 2); got != want {
		t.Errorf("RestoreElement = %v, want %v", got, want)
	}
}

// TestRestoreElementRefusesMismatchedShape: an array re-protected as 8x8
// over a 4x4 checkpoint must not be served the old layout's cell (a
// misdirected repair); the refusal is the one Restart gives.
func TestRestoreElementRefusesMismatchedShape(t *testing.T) {
	w := testWorld(t, 1)
	protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L1); err != nil {
		t.Fatal(err)
	}
	if err := w.Rank(0).Unprotect(0); err != nil {
		t.Fatal(err)
	}
	g := ndarray.New(8, 8)
	if err := w.Rank(0).Protect(0, "grid", g, bitflip.Float32, RecoveryPolicy{Any: true}); err != nil {
		t.Fatal(err)
	}
	_, restartErr := w.Restart()
	if restartErr == nil {
		t.Fatal("Restart accepted a mismatched shape")
	}
	v, err := w.RestoreElement(0, g, g.Offset(0, 5))
	if err == nil {
		t.Fatalf("RestoreElement served %v from a mismatched checkpoint", v)
	}
	if err.Error() != restartErr.Error() {
		t.Errorf("RestoreElement error %q, Restart error %q", err, restartErr)
	}
}

// TestRestoreElementConcurrentWithRestart: restore-rung reads on every rank
// race whole-world restarts, which hold every rank's lock at once.
func TestRestoreElementConcurrentWithRestart(t *testing.T) {
	w := testWorld(t, 3)
	grids := protectGrids(t, w, 4)
	if err := w.Checkpoint(1, L2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range grids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				off := k % grids[i].Len()
				if v, err := w.RestoreElement(i, grids[i], off); err != nil || v != float64(i*1000+off) {
					t.Errorf("rank %d offset %d: RestoreElement = %v, %v", i, off, v, err)
					return
				}
			}
		}(i)
	}
	for k := 0; k < 20; k++ {
		if _, err := w.Restart(); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}
