package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"spatialdue/internal/bitflip"
	"spatialdue/internal/gf256"
	"spatialdue/internal/predict"
)

// Descriptor parity. PRESAGE-style studies show soft errors corrupt
// address-generation metadata, not just data: a flipped bit in an
// allocation's base address silently redirects every subsequent repair to
// the wrong element — worse than no repair at all. The registry therefore
// seals every descriptor's address-generation fields (ID, base, dtype, dims,
// policy, identity) into a canonical byte encoding protected by systematic
// Reed-Solomon parity over GF(2^8):
//
//	encoding  →  split into sealK equal shards  →  sealM parity shards
//	          →  per-shard CRC32 recorded at seal time
//
// Verification re-encodes the live descriptor, CRCs each shard against the
// sealed CRCs, treats mismatching shards as erasures, and reconstructs the
// original encoding when at most sealM shards are bad — repairing the live
// descriptor in place. More damage than the parity can prove correct is
// refused with ErrMetadataCorrupt: the recovery path escalates to
// checkpoint-restore rather than repairing at an address it cannot trust.
//
// The seal itself (CRCs + parity shards) models ECC-protected metadata
// storage: the fault model corrupts the live, hot descriptor fields the
// address math reads, not the cold parity block.

// ErrMetadataCorrupt is returned when an allocation descriptor fails parity
// verification beyond reconstruction: the descriptor cannot be trusted to
// direct a repair, and the caller must escalate to checkpoint-restore.
var ErrMetadataCorrupt = errors.New("registry: allocation metadata corrupt beyond parity reconstruction")

const (
	// sealK and sealM are the Reed-Solomon geometry: any sealK of the
	// sealK+sealM shards reconstruct the descriptor, so up to sealM
	// corrupted shards are survivable.
	sealK = 4
	sealM = 2
	// sealVersion tags the canonical encoding layout.
	sealVersion = 1
	// sealMaxDims bounds the encoded dimensionality (sanity cap for decode).
	sealMaxDims = 16
)

// sealCodec is the package-wide codec; the geometry is fixed, so one
// encoding matrix serves every table.
var sealCodec = func() *gf256.Codec {
	c, err := gf256.NewCodec(sealK, sealM)
	if err != nil {
		panic(fmt.Sprintf("registry: seal codec: %v", err))
	}
	return c
}()

// descriptorFields is the decoded form of a canonical descriptor encoding —
// every field the address math and recovery policy read.
type descriptorFields struct {
	ID     int
	Base   uint64
	DType  bitflip.DType
	Dims   []int
	Policy Policy
	Name   string
	Tenant string
}

// fieldsOf snapshots an allocation's protected fields.
func fieldsOf(a *Allocation) descriptorFields { return fieldsInto(a, nil) }

// fieldsInto is fieldsOf with the dimensions appended to dims, so that a
// caller with a buffer of its own snapshots without allocating.
func fieldsInto(a *Allocation, dims []int) descriptorFields {
	for t := 0; t < a.Array.NumDims(); t++ {
		dims = append(dims, a.Array.Dim(t))
	}
	return descriptorFields{
		ID:     a.ID,
		Base:   a.Base,
		DType:  a.DType,
		Dims:   dims,
		Policy: a.Policy,
		Name:   a.Name,
		Tenant: a.Tenant,
	}
}

// encodeDescriptor serializes the protected fields into the canonical
// fixed-layout byte encoding the parity covers.
func encodeDescriptor(f descriptorFields) []byte {
	return appendDescriptor(make([]byte, 0, 64+len(f.Name)+len(f.Tenant)), f)
}

// appendDescriptor appends f's canonical encoding to buf.
func appendDescriptor(buf []byte, f descriptorFields) []byte {
	buf = append(buf, sealVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(f.ID)))
	buf = binary.LittleEndian.AppendUint64(buf, f.Base)
	buf = append(buf, byte(f.DType))
	buf = append(buf, byte(len(f.Dims)))
	for _, d := range f.Dims {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(d)))
	}
	anyByte := byte(0)
	if f.Policy.Any {
		anyByte = 1
	}
	buf = append(buf, anyByte)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(f.Policy.Method)))
	if r := f.Policy.Range; r != nil {
		buf = append(buf, 1)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Lo))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Hi))
	} else {
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, 0)
		buf = binary.LittleEndian.AppendUint64(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Name)))
	buf = append(buf, f.Name...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Tenant)))
	buf = append(buf, f.Tenant...)
	return buf
}

// decodeDescriptor parses a canonical encoding back into fields. It is the
// exact inverse of encodeDescriptor on well-formed input and returns an
// error (never panics) on corrupt bytes — the fuzz target leans on this.
func decodeDescriptor(enc []byte) (descriptorFields, error) {
	var f descriptorFields
	r := sealReader{buf: enc}
	if v := r.byte(); v != sealVersion {
		return f, fmt.Errorf("registry: descriptor version %d, want %d", v, sealVersion)
	}
	f.ID = int(int64(r.u64()))
	f.Base = r.u64()
	f.DType = bitflip.DType(r.byte())
	nd := int(r.byte())
	if nd > sealMaxDims {
		return f, fmt.Errorf("registry: descriptor claims %d dims", nd)
	}
	f.Dims = make([]int, nd)
	for i := range f.Dims {
		f.Dims[i] = int(int64(r.u64()))
	}
	f.Policy.Any = r.byte() != 0
	f.Policy.Method = predict.Method(int64(r.u64()))
	hasRange := r.byte() != 0
	lo, hi := math.Float64frombits(r.u64()), math.Float64frombits(r.u64())
	if hasRange {
		f.Policy.Range = &ValueRange{Lo: lo, Hi: hi}
	}
	f.Name = r.str()
	f.Tenant = r.str()
	if r.err != nil {
		return f, r.err
	}
	return f, nil
}

// sealReader is a bounds-checked little-endian cursor.
type sealReader struct {
	buf []byte
	pos int
	err error
}

func (r *sealReader) take(n int) []byte {
	if r.err != nil || r.pos+n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("registry: descriptor truncated at byte %d", r.pos)
		}
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *sealReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *sealReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *sealReader) str() string {
	b := r.take(2)
	if b == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(b))
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// descriptorSeal is the parity block recorded when a descriptor is sealed.
type descriptorSeal struct {
	encLen int
	crcs   [sealK + sealM]uint32
	parity [][]byte
}

// shardSize returns the padded per-shard length for an encoding of n bytes.
func shardSize(n int) int { return (n + sealK - 1) / sealK }

// splitShards pads enc to sealK*sz bytes and deals it into sealK shards
// byte-interleaved (byte b goes to shard b mod sealK): a burst of adjacent
// corrupted bytes spreads across shards one byte each, so the parity
// survives the longest possible contiguous damage, while damage wider than
// sealM distinct shards is honestly refused.
func splitShards(enc []byte, sz int) [][]byte {
	shards := make([][]byte, sealK)
	for i := range shards {
		shards[i] = make([]byte, sz)
	}
	for b, v := range enc {
		shards[b%sealK][b/sealK] = v
	}
	return shards
}

// joinShards reverses splitShards, returning the first n bytes.
func joinShards(shards [][]byte, n int) []byte {
	out := make([]byte, n)
	for b := range out {
		out[b] = shards[b%sealK][b/sealK]
	}
	return out
}

// sealDescriptor computes the parity block for an encoding.
func sealDescriptor(enc []byte) *descriptorSeal {
	sz := shardSize(len(enc))
	data := splitShards(enc, sz)
	parity, err := sealCodec.Encode(data)
	if err != nil {
		// Impossible: shards are equal-length by construction.
		panic(fmt.Sprintf("registry: seal encode: %v", err))
	}
	s := &descriptorSeal{encLen: len(enc), parity: parity}
	for i, sh := range data {
		s.crcs[i] = crc32.ChecksumIEEE(sh)
	}
	for j, sh := range parity {
		s.crcs[sealK+j] = crc32.ChecksumIEEE(sh)
	}
	return s
}

// verifySealed checks enc against the seal and, when at most sealM shards
// mismatch, reconstructs and returns the original encoding. It reports
// (original, repaired, nil) on success — repaired is false when enc was
// already clean — or ErrMetadataCorrupt when the damage exceeds the parity.
func verifySealed(enc []byte, s *descriptorSeal) ([]byte, bool, error) {
	sz := shardSize(s.encLen)
	var data [][]byte
	allBad := len(enc) != s.encLen
	if !allBad {
		data = splitShards(enc, sz)
	} else {
		// Length drift means the shard boundaries themselves are unknown:
		// every data shard is an erasure (unrecoverable with sealM < sealK,
		// but the parity path below decides uniformly).
		data = make([][]byte, sealK)
	}
	shards := make([][]byte, sealK+sealM)
	bad := 0
	clean := true
	for i := 0; i < sealK; i++ {
		if data[i] == nil || crc32.ChecksumIEEE(data[i]) != s.crcs[i] {
			bad++
			clean = false
			continue
		}
		shards[i] = data[i]
	}
	if clean {
		return enc, false, nil
	}
	for j := 0; j < sealM; j++ {
		// The stored parity models ECC-protected cold storage; CRC anyway so
		// a corrupted seal is detected rather than trusted.
		if crc32.ChecksumIEEE(s.parity[j]) == s.crcs[sealK+j] {
			shards[sealK+j] = s.parity[j]
		} else {
			bad++
		}
	}
	if bad > sealM {
		return nil, false, ErrMetadataCorrupt
	}
	if err := sealCodec.Reconstruct(shards); err != nil {
		return nil, false, ErrMetadataCorrupt
	}
	// The reconstruction must itself pass the seal: a decode matrix fed >m
	// in-shard corruptions that slipped past CRC would otherwise go unnoticed.
	for i := 0; i < sealK; i++ {
		if crc32.ChecksumIEEE(shards[i]) != s.crcs[i] {
			return nil, false, ErrMetadataCorrupt
		}
	}
	return joinShards(shards, s.encLen), true, nil
}
