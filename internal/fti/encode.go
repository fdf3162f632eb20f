package fti

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/predict"
)

// Checkpoint blob layout (little-endian):
//
//	magic   [8]byte  "FTICKPT1"
//	blobLen uint64   total length including header and trailing CRC
//	rank    uint32
//	ckptID  uint32
//	nData   uint32
//	per dataset:
//	  id     int32
//	  name   uint16 length + bytes
//	  dtype  uint8
//	  any    uint8 (recovery policy)
//	  method int32
//	  ndims  uint8
//	  dims   ndims * uint32
//	  data   count*8 bytes of float64 bits
//	crc32 (IEEE) over everything before it
//
// The explicit blobLen lets Reed-Solomon reconstruction (which pads blobs to
// the longest rank's size) trim a rebuilt blob before checksumming.

var magic = [8]byte{'F', 'T', 'I', 'C', 'K', 'P', 'T', '1'}

// encode serializes the rank's protected datasets.
func (r *Rank) encode(ckptID int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	// The exact blob size: magic, blobLen, three header words and the CRC,
	// plus per dataset 13 fixed header bytes, the name, dims and data.
	size := 16 + 12 + 4
	for _, id := range r.order {
		ds := r.datasets[id]
		size += 13 + len(ds.Name) + 4*ds.Array.NumDims() + 8*ds.Array.Len()
	}
	le := binary.LittleEndian
	b := append(make([]byte, 0, size), magic[:]...)
	b = le.AppendUint64(b, 0) // blobLen, patched below
	b = le.AppendUint32(b, uint32(r.id))
	b = le.AppendUint32(b, uint32(ckptID))
	b = le.AppendUint32(b, uint32(len(r.order)))
	for _, id := range r.order {
		ds := r.datasets[id]
		if len(ds.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("dataset name too long: %d bytes", len(ds.Name))
		}
		b = le.AppendUint32(b, uint32(int32(ds.ID)))
		b = le.AppendUint16(b, uint16(len(ds.Name)))
		b = append(b, ds.Name...)
		anyB := byte(0)
		if ds.Policy.Any {
			anyB = 1
		}
		b = append(b, byte(ds.DType), anyB)
		b = le.AppendUint32(b, uint32(int32(ds.Policy.Method)))
		dims := ds.Array.Dims()
		b = append(b, byte(len(dims)))
		for _, d := range dims {
			b = le.AppendUint32(b, uint32(d))
		}
		for _, v := range ds.Array.Data() {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	// Patch the length (header+payload+4-byte CRC), then append the CRC.
	le.PutUint64(b[8:16], uint64(len(b)+4))
	return le.AppendUint32(b, crc32.ChecksumIEEE(b)), nil
}

// blobOK reports whether blob is a structurally intact checkpoint blob:
// magic, coherent length header, and matching trailing CRC. The restore
// paths use it to treat a latently corrupted copy as missing — falling
// through to a checkpoint level whose bytes are independent — instead of
// failing the whole restore on the first damaged candidate. It is the only
// CRC check a restore makes.
func blobOK(blob []byte) bool {
	if len(blob) < len(magic)+12 || !bytes.Equal(blob[:8], magic[:]) {
		return false
	}
	total := binary.LittleEndian.Uint64(blob[8:16])
	if total < uint64(len(magic))+12 || total > uint64(len(blob)) {
		return false
	}
	b := blob[:total]
	return crc32.ChecksumIEEE(b[:len(b)-4]) == binary.LittleEndian.Uint32(b[len(b)-4:])
}

// entry is one dataset as a checkpoint blob holds it.
type entry struct {
	name   []byte
	dtype  bitflip.DType
	policy RecoveryPolicy
	data   []byte // Array.Len() float64s as little-endian bits
}

// walk reads a blob that passed blobOK and checks it against the rank's
// protected set (r.mu held): the rank and checkpoint ids, the dataset
// count, and per dataset its id, in protection order, and its dims. It
// calls visit, when not nil, with each protected dataset and its entry, and
// stops at the first mismatch. Restart, decodeInto and RestoreElement all
// read a blob through it, so they accept exactly the same blobs and refuse
// the rest with the same errors.
func (r *Rank) walk(blob []byte, ckptID int, visit func(*Dataset, entry)) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("fti: restoring rank %d: %w", r.id, err)
		}
	}()
	c := cursor{b: blob[16 : binary.LittleEndian.Uint64(blob[8:16])-4]}
	rank, ckpt, n := c.le(4), c.le(4), c.le(4)
	switch {
	case c.short:
		return errors.New("truncated checkpoint header")
	case int(rank) != r.id:
		return fmt.Errorf("checkpoint is for rank %d, not %d", rank, r.id)
	case int(ckpt) != ckptID:
		return fmt.Errorf("checkpoint id %d, want %d", ckpt, ckptID)
	case int(n) != len(r.order):
		return fmt.Errorf("checkpoint has %d datasets, %d protected", n, len(r.order))
	}
	for _, id := range r.order {
		ds := r.datasets[id]
		gotID := int32(c.le(4))
		e := entry{name: c.take(int(c.le(2))), dtype: bitflip.DType(c.le(1))}
		e.policy = RecoveryPolicy{Any: c.le(1) == 1, Method: predict.Method(int32(c.le(4)))}
		dims := make([]int, c.le(1))
		for i := range dims {
			dims[i] = int(c.le(4))
		}
		if c.short {
			return fmt.Errorf("dataset %d: truncated header", id)
		}
		if int(gotID) != id {
			return fmt.Errorf("checkpoint dataset id %d, want %d", gotID, id)
		}
		if ad := ds.Array.Dims(); !slices.Equal(dims, ad) {
			return fmt.Errorf("dataset %d: checkpoint dims %v, array %v", id, dims, ad)
		}
		if e.data = c.take(8 * ds.Array.Len()); c.short {
			return fmt.Errorf("dataset %d: truncated data", id)
		}
		if visit != nil {
			visit(ds, e)
		}
	}
	return nil
}

// restore writes blobs[i] into ranks[i]'s protected arrays, all or nothing:
// every blob is walked and checked before any array is written. The blobs
// must have passed blobOK.
func restore(ranks []*Rank, blobs [][]byte, ckptID int) error {
	for _, r := range ranks {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	for i, r := range ranks {
		if err := r.walk(blobs[i], ckptID, nil); err != nil {
			return err
		}
	}
	for i, r := range ranks {
		// Cannot fail: the pass above walked the same blobs under the same locks.
		_ = r.walk(blobs[i], ckptID, func(ds *Dataset, e entry) {
			data := ds.Array.Data()
			for k := range data {
				data[k] = math.Float64frombits(binary.LittleEndian.Uint64(e.data[8*k:]))
			}
			// Refresh the recorded metadata from the checkpoint.
			ds.Name, ds.DType, ds.Policy = string(e.name), e.dtype, e.policy
		})
	}
	return nil
}

// decodeInto restores the rank's protected arrays from one checkpoint blob,
// as Restart restores every rank. The protected set must structurally match
// the checkpoint (same ids in the same order with the same shapes) —
// mirroring FTI, which requires the application to re-protect its buffers
// before FTI_Recover.
func (r *Rank) decodeInto(blob []byte, wantCkpt int) error {
	if !blobOK(blob) {
		return fmt.Errorf("fti: restoring rank %d: checkpoint CRC mismatch", r.id)
	}
	return restore([]*Rank{r}, [][]byte{blob}, wantCkpt)
}

// cursor reads a blob front to back. A read past the end sets short and
// yields nothing, so a truncated blob is checked once per header.
type cursor struct {
	b     []byte
	short bool
}

func (c *cursor) take(n int) []byte {
	if n > len(c.b) {
		c.b, c.short = nil, true
		return nil
	}
	b := c.b[:n]
	c.b = c.b[n:]
	return b
}

// le reads an n-byte little-endian unsigned integer (0 past the end).
func (c *cursor) le(n int) uint64 {
	var v uint64
	for i, x := range c.take(n) {
		v |= uint64(x) << (8 * i)
	}
	return v
}
