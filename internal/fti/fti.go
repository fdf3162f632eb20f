// Package fti is a Go reimplementation of the interfaces this paper builds
// on from the Fault Tolerance Interface (FTI) multi-level checkpointing
// library (Bautista-Gomez et al., SC'11), extended the way Section 3.2 of
// the paper extends it: FTI_Protect records, alongside the buffer itself,
// the dimensionality, element type, and a per-dataset recovery method, so
// that when a DUE or SDC is detected inside a protected array the library
// can forward-recover the corrupted element in place instead of rolling the
// whole application back to a checkpoint.
//
// Like real FTI, checkpoints are written at four levels of increasing
// resilience and cost:
//
//	L1 — local:   each (simulated) rank writes to its own local directory;
//	               survives process crashes, not node loss.
//	L2 — partner: L1 plus a copy on a partner rank's storage; survives the
//	               loss of any single rank's storage.
//	L3 — encoded: L1 plus Reed-Solomon parity blocks across all ranks
//	               (internal/gf256), as in real FTI; survives the loss of up
//	               to ParityShards ranks' storage at lower space cost than
//	               full replication.
//	L4 — global:  everything on the (simulated) parallel file system;
//	               survives anything that leaves the PFS intact.
//
// MPI ranks are simulated as in-process Rank objects sharing a World; rank
// storage is a per-rank directory, and "losing a node" is deleting one. The
// recovery semantics the paper relies on are therefore exercised end to
// end: checkpoint, storage loss, restart from the best surviving level, and
// — the paper's contribution — SDCCheck with in-place forward recovery.
package fti

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/gf256"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
)

// Level identifies a checkpoint level.
type Level int

const (
	// L1 writes to rank-local storage only.
	L1 Level = 1 + iota
	// L2 adds a partner copy.
	L2
	// L3 adds Reed-Solomon parity blocks across ranks (internal/gf256;
	// SetParityShards sets how many).
	L3
	// L4 writes to the simulated parallel file system.
	L4
)

// String implements fmt.Stringer.
func (l Level) String() string { return fmt.Sprintf("L%d", int(l)) }

var (
	// ErrNoCheckpoint is returned by Restart when no usable checkpoint
	// survives at any level.
	ErrNoCheckpoint = errors.New("fti: no recoverable checkpoint")
	// ErrIDInUse is returned by Protect when a dataset id is already taken.
	ErrIDInUse = errors.New("fti: dataset id already protected")
	// ErrNotProtected is returned when an operation names an unknown id.
	ErrNotProtected = errors.New("fti: dataset not protected")
)

// RecoveryPolicy mirrors the paper's FTI_Protect extension: how to repair a
// corrupted element of this dataset.
type RecoveryPolicy struct {
	// Any selects RECOVER_ANY (local auto-tuning at repair time).
	Any bool
	// Method is the fixed method when Any is false.
	Method predict.Method
}

// Dataset is the metadata FTI keeps per protected buffer (FTIT_dataset in
// the C library), extended with dimensionality and recovery method.
type Dataset struct {
	// ID is the user-chosen dataset id (first argument of FTI_Protect).
	ID int
	// Name labels the dataset in diagnostics.
	Name string
	// Array is the protected buffer.
	Array *ndarray.Array
	// DType is the element representation of the original application
	// buffer (float32 for most HPC dumps).
	DType bitflip.DType
	// Policy is the recorded recovery method.
	Policy RecoveryPolicy
}

// Rank is one simulated MPI rank: a set of protected datasets plus its
// rank-local storage directory.
type Rank struct {
	world *World
	id    int

	mu       sync.Mutex
	datasets map[int]*Dataset
	order    []int // protection order, for deterministic serialization
}

// World is the simulated job: a set of ranks, their storage, and the
// checkpoint metadata. It corresponds to FTI_Init state.
type World struct {
	dir    string
	ranks  []*Rank
	mu     sync.Mutex
	ckptID int // last completed checkpoint id
	level  Level
	parity int // L3 Reed-Solomon parity shard count
}

// NewWorld creates a world of n simulated ranks whose storage lives under
// dir (one subdirectory per rank plus a "pfs" directory).
func NewWorld(dir string, n int) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("fti: need at least one rank, got %d", n)
	}
	w := &World{dir: dir, parity: 1}
	for i := 0; i < n; i++ {
		w.ranks = append(w.ranks, &Rank{world: w, id: i, datasets: map[int]*Dataset{}})
		if err := os.MkdirAll(w.rankDir(i), 0o755); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(w.pfsDir(), 0o755); err != nil {
		return nil, err
	}
	return w, nil
}

// NumRanks returns the number of simulated ranks.
func (w *World) NumRanks() int { return len(w.ranks) }

// SetParityShards sets how many Reed-Solomon parity blocks L3 checkpoints
// write (default 1): up to m rank-storage losses stay recoverable from L3
// alone. It must be called before the first L3 checkpoint.
func (w *World) SetParityShards(m int) error {
	if m < 1 || len(w.ranks)+m > 255 {
		return fmt.Errorf("fti: invalid parity shard count %d for %d ranks", m, len(w.ranks))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.parity = m
	return nil
}

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// LastCheckpoint returns the id and level of the last completed checkpoint
// (0 if none).
func (w *World) LastCheckpoint() (int, Level) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ckptID, w.level
}

func (w *World) rankDir(i int) string { return filepath.Join(w.dir, fmt.Sprintf("rank%03d", i)) }
func (w *World) pfsDir() string       { return filepath.Join(w.dir, "pfs") }
func (w *World) partner(i int) int    { return (i + 1) % len(w.ranks) }
func ckptFile(ckptID int) string      { return fmt.Sprintf("ckpt%06d.fti", ckptID) }
func partnerFile(ckptID, of int) string {
	return fmt.Sprintf("ckpt%06d.partner%03d.fti", ckptID, of)
}

// copies lists the full copies of a rank's blob by the level that adds
// them, in the order Checkpoint writes them and the restore paths read them.
var copies = [...]Level{L1, L2, L4}

// blobPath returns the file that holds rank i's blob of checkpoint ckptID
// at level l: L1 on its own storage, L2 on its partner's, L4 on the PFS.
func (w *World) blobPath(ckptID, i int, l Level) string {
	switch l {
	case L1:
		return filepath.Join(w.rankDir(i), ckptFile(ckptID))
	case L2:
		return filepath.Join(w.rankDir(w.partner(i)), partnerFile(ckptID, i))
	}
	return filepath.Join(w.pfsDir(), fmt.Sprintf("rank%03d.%s", i, ckptFile(ckptID)))
}

// parityPath returns the file that holds L3 parity shard j of ckptID.
func (w *World) parityPath(ckptID, j int) string {
	return filepath.Join(w.pfsDir(), fmt.Sprintf("ckpt%06d.parity%03d", ckptID, j))
}

// Protect registers a buffer for checkpointing and forward recovery — the
// paper's extended FTI_Protect (Algorithm 1). The dims recorded are those
// of the array; passing explicit dims that disagree is an error.
func (r *Rank) Protect(id int, name string, arr *ndarray.Array, dtype bitflip.DType, policy RecoveryPolicy, dims ...int) error {
	if len(dims) > 0 {
		ad := arr.Dims()
		if len(dims) != len(ad) {
			return fmt.Errorf("fti: declared %d-D but array is %d-D", len(dims), len(ad))
		}
		for i := range dims {
			if dims[i] != ad[i] {
				return fmt.Errorf("fti: declared dims %v but array is %v", dims, ad)
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.datasets[id]; dup {
		return fmt.Errorf("%w: %d", ErrIDInUse, id)
	}
	r.datasets[id] = &Dataset{ID: id, Name: name, Array: arr, DType: dtype, Policy: policy}
	r.order = append(r.order, id)
	return nil
}

// Unprotect removes a dataset from protection.
func (r *Rank) Unprotect(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.datasets[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNotProtected, id)
	}
	delete(r.datasets, id)
	for i, d := range r.order {
		if d == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return nil
}

// Dataset returns the protected dataset with the given id.
func (r *Rank) Dataset(id int) (*Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds, ok := r.datasets[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotProtected, id)
	}
	return ds, nil
}

// Datasets returns the rank's datasets in protection order.
func (r *Rank) Datasets() []*Dataset {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Dataset, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.datasets[id])
	}
	return out
}

// Checkpoint writes checkpoint ckptID at the given level across all ranks.
// Checkpoint ids must be strictly increasing.
func (w *World) Checkpoint(ckptID int, level Level) error {
	if level < L1 || level > L4 {
		return fmt.Errorf("fti: invalid level %d", int(level))
	}
	w.mu.Lock()
	if ckptID <= w.ckptID {
		w.mu.Unlock()
		return fmt.Errorf("fti: checkpoint id %d not greater than last (%d)", ckptID, w.ckptID)
	}
	w.mu.Unlock()

	// Seal file-backed datasets first: an mmap-backed array's dirty pages
	// must be on disk before the blob encode (and any later hard link of
	// the blob) can claim durability for this checkpoint id.
	for i, r := range w.ranks {
		if err := r.sealDatasets(); err != nil {
			return fmt.Errorf("fti: sealing rank %d: %w", i, err)
		}
	}

	// Serialize every rank.
	blobs := make([][]byte, len(w.ranks))
	for i, r := range w.ranks {
		b, err := r.encode(ckptID)
		if err != nil {
			return fmt.Errorf("fti: encoding rank %d: %w", i, err)
		}
		blobs[i] = b
	}

	// L1: local write on every rank. The L1 blob is write-once per
	// checkpoint id (temp + rename, never mutated afterwards), which is
	// what makes the L4 hard-link fan-out sound: links share the inode, so
	// they are only ever taken from immutable sources — never from a live
	// mmap backing file, which in-place recovery writes keep mutating.
	for i := range w.ranks {
		if err := atomicWrite(w.blobPath(ckptID, i, L1), blobs[i]); err != nil {
			return err
		}
	}
	// L2: partner copies — real byte copies on the partner's storage, NOT
	// hard links of the L1 blob. The partner level exists to survive damage
	// to rank i's copy, so it must not share the L1 inode: a single latent
	// media corruption of shared blocks would take out both "copies" at
	// once.
	if level >= L2 {
		for i := range w.ranks {
			if err := atomicWrite(w.blobPath(ckptID, i, L2), blobs[i]); err != nil {
				return err
			}
		}
	}
	// L3: Reed-Solomon parity across ranks, stored on the PFS metadata
	// area (real FTI distributes RS groups across ranks; the coverage —
	// any ParityShards losses — is the same).
	if level >= L3 {
		w.mu.Lock()
		m := w.parity
		w.mu.Unlock()
		codec, err := gf256.NewCodec(len(w.ranks), m)
		if err != nil {
			return fmt.Errorf("fti: parity codec: %w", err)
		}
		parity, err := codec.Encode(padShards(blobs))
		if err != nil {
			return fmt.Errorf("fti: parity encode: %w", err)
		}
		for j, p := range parity {
			if err := atomicWrite(w.parityPath(ckptID, j), p); err != nil {
				return err
			}
		}
	}
	// L4: full copies on the PFS — hard links of the immutable L1 blobs.
	// Shared fate with L1 is acceptable here: the level's threat model is
	// losing rank-local storage wholesale (where the PFS inode survives
	// untouched), and latent corruption of the shared blob is caught by the
	// CRC check on restart, which falls through to the independent-byte L2
	// copy or L3 parity.
	if level >= L4 {
		for i := range w.ranks {
			if err := linkOrCopy(w.blobPath(ckptID, i, L1), w.blobPath(ckptID, i, L4), blobs[i]); err != nil {
				return err
			}
		}
	}

	w.mu.Lock()
	w.ckptID, w.level = ckptID, level
	w.mu.Unlock()
	return nil
}

// LoseRank simulates the loss of one rank's local storage (node failure):
// its rank directory is emptied. Protected arrays in memory are untouched;
// call Restart to rebuild state from surviving checkpoints.
func (w *World) LoseRank(i int) error {
	dir := w.rankDir(i)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// Restart restores every rank's protected arrays from the most recent
// checkpoint, using the cheapest level that still has INTACT data (see
// surviving), and returns the level used. It is all or nothing: every
// rank's blob is checked against its protected set before any array is
// written, so a refused restart leaves memory as it was.
func (w *World) Restart() (Level, error) {
	w.mu.Lock()
	ckptID := w.ckptID
	w.mu.Unlock()
	if ckptID == 0 {
		return 0, ErrNoCheckpoint
	}
	blobs, used, err := w.surviving(ckptID, -1)
	if err != nil {
		return 0, err
	}
	if err := restore(w.ranks, blobs, ckptID); err != nil {
		return 0, err
	}
	return used, nil
}

// surviving finds intact blobs of checkpoint ckptID, indexed by rank: rank's
// alone, or every rank's when rank < 0. Each rank's full copies are tried in
// the order Checkpoint writes them (local, partner, PFS), and a copy counts
// only if it passes blobOK, so a latently corrupted copy reads as missing.
// Blobs with no intact copy are rebuilt once from Reed-Solomon parity; only
// then are the other ranks' blobs read. used is the highest level reached.
func (w *World) surviving(ckptID, rank int) (blobs [][]byte, used Level, err error) {
	blobs, used = make([][]byte, len(w.ranks)), L1
	read := func(i int) bool {
		for _, l := range copies {
			if b, err := os.ReadFile(w.blobPath(ckptID, i, l)); err == nil && blobOK(b) {
				blobs[i], used = b, max(used, l)
				return true
			}
		}
		return false
	}
	var missing []int
	for i := range w.ranks {
		if (rank < 0 || i == rank) && !read(i) {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return blobs, used, nil
	}
	// L3: Reed-Solomon rebuild needs the other ranks' blobs as well; a
	// single-rank search reads them only now.
	for i := range w.ranks {
		if rank >= 0 && i != rank {
			read(i)
		}
	}
	w.mu.Lock()
	m := w.parity
	w.mu.Unlock()
	codec, err := gf256.NewCodec(len(w.ranks), m)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: ranks %v unrecoverable: %v", ErrNoCheckpoint, missing, err)
	}
	shards := append(blobs[:len(blobs):len(blobs)], make([][]byte, m)...)
	for j := range m {
		if p, err := os.ReadFile(w.parityPath(ckptID, j)); err == nil {
			shards[len(w.ranks)+j] = p
		}
	}
	// Pad to the encode-time size, which the parity shards carry (a
	// missing blob may have been the longest one).
	shards = padShards(shards)
	if err := codec.Reconstruct(shards); err != nil {
		return nil, 0, fmt.Errorf("%w: ranks %v unrecoverable: %v", ErrNoCheckpoint, missing, err)
	}
	for _, i := range missing {
		if !blobOK(shards[i]) {
			return nil, 0, fmt.Errorf("%w: rank %d rebuilt from parity fails its CRC", ErrNoCheckpoint, i)
		}
		blobs[i] = shards[i] // the walk trims the padding via the length header
	}
	return blobs, max(used, L3), nil
}

// atomicWrite writes data to path via a temp file + rename so that a crash
// mid-write never leaves a torn checkpoint behind.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// linkOrCopy fans a finished L1 blob out to dst as a hard link — sharing
// the inode turns the L4 fan-out into a metadata operation. Sound only
// because the source blob is write-once (atomicWrite renames a fresh temp
// file into place and nothing ever mutates it; a later checkpoint of the
// same id is refused) and because every restore CRC-verifies each copy, so
// inode-shared corruption falls through to levels with independent bytes
// (L2 copies, L3 parity). Where the filesystem refuses links (or dst
// already exists from a retried level), it falls back to an atomic byte
// copy of data.
func linkOrCopy(src, dst string, data []byte) error {
	_ = os.Remove(dst) // links cannot overwrite; stale dst may exist from a retry
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	return atomicWrite(dst, data)
}

// sealDatasets flushes every file-backed dataset to durable storage (msync
// for mmap backings; no-op for heap) so the checkpoint observes on-disk
// bytes at least as fresh as the blob it is about to cut.
func (r *Rank) sealDatasets() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.order {
		if err := r.datasets[id].Array.Seal(); err != nil {
			return err
		}
	}
	return nil
}

// padShards returns copies of the blobs zero-padded to a common length (the
// Reed-Solomon codec requires equal-size shards; the per-blob length header
// lets decode trim the padding afterwards). Missing (nil) blobs stay nil.
func padShards(blobs [][]byte) [][]byte {
	maxLen := 0
	for _, b := range blobs {
		if len(b) > maxLen {
			maxLen = len(b)
		}
	}
	out := make([][]byte, len(blobs))
	for i, b := range blobs {
		if b == nil {
			continue
		}
		p := make([]byte, maxLen)
		copy(p, b)
		out[i] = p
	}
	return out
}
