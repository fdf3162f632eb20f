package fti

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/golden"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

const checkpointGoldenPath = "testdata/checkpoint_golden.txt"

// TestCheckpointGolden pins the on-disk checkpoint format: the byte layout
// of every blob, the parity shards and the file naming of all four levels.
// A 3-rank world with two datasets per rank and two parity shards takes one
// L4 checkpoint; the golden lists every file under the world directory,
// sorted, with its size and SHA-256.
func TestCheckpointGolden(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWorld(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SetParityShards(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.NumRanks(); i++ {
		rank := i
		a := ndarray.New(4, 5)
		a.FillFunc(func(idx []int) float64 { return float64(rank*100+idx[0]*5+idx[1]) + 0.25 })
		// The second dataset's length differs per rank, so the blobs differ
		// in size and the parity shards carry padding.
		b := ndarray.New(3 + rank)
		b.FillFunc(func(idx []int) float64 { return -1.5 * float64(rank+idx[0]) })
		if err := w.Rank(i).Protect(10, "temp", a, bitflip.Float32, RecoveryPolicy{Any: true}); err != nil {
			t.Fatal(err)
		}
		if err := w.Rank(i).Protect(7, "flux-"+fmt.Sprint(rank), b, bitflip.Float64,
			RecoveryPolicy{Method: predict.MethodLorenzo1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Checkpoint(1, L4); err != nil {
		t.Fatal(err)
	}

	var lines []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("%s %d %x", filepath.ToSlash(rel), len(b), sha256.Sum256(b)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	golden.Compare(t, checkpointGoldenPath, []byte(strings.Join(lines, "\n")+"\n"))
}
