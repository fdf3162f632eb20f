package fti

import (
	"encoding/binary"
	"fmt"
	"math"

	"spatialdue/internal/ndarray"
)

// Element restore is the checkpoint rung of the recovery supervisor's
// escalation ladder: when every prediction-based reconstruction of one
// element fails verification, the element's value is re-read from the
// newest surviving checkpoint without disturbing the rest of the in-memory
// state. It finds the rank's blob the way Restart does (surviving: local,
// partner, PFS, then Reed-Solomon parity, each copy CRC-checked) and reads
// it through the same walk, so it serves a value only from a checkpoint
// Restart would accept. This trades temporal staleness (the checkpoint is
// from an earlier timestep) for spatial independence: the restored value
// cannot be polluted by the corrupted neighborhood.

// ErrElementUnavailable is returned by RestoreElement when the array is not
// protected on the rank or the offset is out of range.
var ErrElementUnavailable = fmt.Errorf("fti: element not restorable")

// RestoreElement reads the value of element off of arr (which must be
// protected on rank) from the newest surviving checkpoint. Only the single
// element is returned; nothing in memory is modified.
func (w *World) RestoreElement(rank int, arr *ndarray.Array, off int) (float64, error) {
	if rank < 0 || rank >= len(w.ranks) {
		return 0, fmt.Errorf("%w: no rank %d", ErrElementUnavailable, rank)
	}
	if off < 0 || off >= arr.Len() {
		return 0, fmt.Errorf("%w: offset %d out of range", ErrElementUnavailable, off)
	}
	w.mu.Lock()
	ckptID := w.ckptID
	w.mu.Unlock()
	if ckptID == 0 {
		return 0, ErrNoCheckpoint
	}
	blobs, _, err := w.surviving(ckptID, rank)
	if err != nil {
		return 0, err
	}

	r := w.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	var v float64
	found := false
	err = r.walk(blobs[rank], ckptID, func(ds *Dataset, e entry) {
		if ds.Array == arr {
			v, found = math.Float64frombits(binary.LittleEndian.Uint64(e.data[8*off:])), true
		}
	})
	if err == nil && !found {
		err = fmt.Errorf("%w: array not protected on rank %d", ErrElementUnavailable, rank)
	}
	return v, err
}
