package client

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// The field wire format (PUT and GET /v1/allocations/{name}/data) is
// little-endian IEEE-754, 8 bytes per element, row-major. Both directions
// convert through one fieldChunk-sized buffer per transfer, so the SDK's
// memory beside the caller's []float64 does not grow with the field.
const fieldChunk = 64 << 10

// fieldEncoder is an upload body: it reads as the wire encoding of vals,
// encoding one chunk at a time.
type fieldEncoder struct {
	vals    []float64 // not yet encoded
	pending []byte    // encoded, not yet read
	buf     []byte
}

func (e *fieldEncoder) Read(p []byte) (int, error) {
	if len(e.pending) == 0 {
		if len(e.vals) == 0 {
			return 0, io.EOF
		}
		if e.buf == nil {
			e.buf = make([]byte, fieldChunk)
		}
		n := min(len(e.vals), fieldChunk/8)
		for i, v := range e.vals[:n] {
			binary.LittleEndian.PutUint64(e.buf[8*i:], math.Float64bits(v))
		}
		e.vals, e.pending = e.vals[n:], e.buf[:8*n]
	}
	n := copy(p, e.pending)
	e.pending = e.pending[n:]
	return n, nil
}

// readField decodes a download body. With a declared length (>= 0) the result
// is allocated once at that size and the body must hold exactly that many
// bytes; without one (a chunked response) it grows as the body arrives.
func readField(body io.Reader, declared int64) ([]float64, error) {
	var vals []float64
	if declared >= 0 {
		if declared%8 != 0 {
			return nil, fmt.Errorf("field body of %d bytes is not a whole number of 8-byte elements", declared)
		}
		vals = make([]float64, 0, declared/8)
	}
	buf := make([]byte, fieldChunk)
	fill := 0 // buf[:fill] is read but not yet decoded
	for {
		n, err := body.Read(buf[fill:])
		fill += n
		whole := fill / 8
		if declared >= 0 && len(vals)+whole > cap(vals) {
			return nil, fmt.Errorf("field body runs past its declared %d bytes", declared)
		}
		vals = slices.Grow(vals, whole)
		dst := vals[len(vals) : len(vals)+whole]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		vals = vals[:len(vals)+whole]
		fill = copy(buf, buf[8*whole:fill])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("field body after %d bytes: %w", 8*len(vals)+fill, err)
		}
	}
	if fill != 0 {
		return nil, fmt.Errorf("field body of %d bytes is not a whole number of 8-byte elements", 8*len(vals)+fill)
	}
	if declared >= 0 && int64(8*len(vals)) != declared {
		return nil, fmt.Errorf("field body ended after %d of its declared %d bytes", 8*len(vals), declared)
	}
	return vals, nil
}
