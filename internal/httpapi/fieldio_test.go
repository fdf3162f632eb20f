package httpapi

import (
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"

	"spatialdue/internal/core"
	"spatialdue/internal/ndarray"
)

// elementCount must mirror ndarray.checkDims exactly — in particular it
// must reject empty dims instead of returning a product of 1, which in mmap
// mode would materialize an 8-byte backing file the shape check then
// strands.
func TestElementCount(t *testing.T) {
	if _, err := elementCount(nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := elementCount([]int{4, 0}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := elementCount([]int{4, -2}); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := elementCount([]int{1 << 32, 1 << 32}); err == nil {
		t.Error("overflowing dims accepted")
	}
	n, err := elementCount([]int{3, 4, 5})
	if err != nil || n != 60 {
		t.Errorf("elementCount(3,4,5) = %d, %v; want 60, nil", n, err)
	}
}

// chunkReader hands out at most n bytes a Read, so a body arrives split at
// arbitrary points, stripe boundaries included.
type chunkReader struct {
	b []byte
	n int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.n, len(r.b))
	copy(p, r.b[:k])
	r.b = r.b[k:]
	return k, nil
}

// FuzzReadField feeds the field decoder — the upload body and the replica's
// field frame — arbitrary bytes, lengths and read splits. It must never
// panic and must commit only whole stripes: a body of at least the field's
// size commits every stripe from its first Len*8 bytes; a shorter one
// returns an error and names exactly the stripes it delivered in full,
// leaving every other element as it was.
func FuzzReadField(f *testing.F) {
	f.Add([]byte{}, uint8(10), uint8(3), uint8(7))
	f.Add(make([]byte, 8*24*3), uint8(24), uint8(3), uint8(255))
	f.Add(make([]byte, 8*24*3-1), uint8(24), uint8(3), uint8(0))
	f.Add(make([]byte, 8*11*3+5), uint8(24), uint8(3), uint8(16))
	f.Add(make([]byte, 8*40+9), uint8(40), uint8(1), uint8(3))

	eng := core.NewEngine(core.Options{Seed: 7})
	arrays := map[[2]int]*ndarray.Array{} // reused across inputs: the engine keeps a record per array
	const sentinel = 0x5a5a5a5a5a5a5a5a
	f.Fuzz(func(t *testing.T, body []byte, rows, cols, chunk uint8) {
		dims := [2]int{1 + int(rows)%64, 1 + int(cols)%8}
		a := arrays[dims]
		if a == nil {
			a = ndarray.New(dims[0], dims[1])
			arrays[dims] = a
		}
		data := a.Data()
		for i := range data {
			data[i] = math.Float64frombits(sentinel)
		}
		committed, err := ReadField(eng, a, &chunkReader{b: body, n: 1 + int(chunk)})

		// Stripes whose bytes the body holds in full, in order.
		var want []int
		covered := 0 // elements of those stripes
		for st := 0; st < eng.NumStripes(a); st++ {
			lo, hi := eng.StripeSpan(a, st)
			if lo != covered {
				t.Fatalf("stripe %d starts at %d, want %d", st, lo, covered)
			}
			if hi*8 > len(body) {
				break
			}
			want = append(want, st)
			covered = hi
		}
		if !slices.Equal(committed, want) {
			t.Fatalf("committed %v, want %v (body %d bytes, field %d elements)", committed, want, len(body), len(data))
		}
		if short := len(body) < len(data)*8; short != (err != nil) {
			t.Fatalf("body %d bytes for %d elements: err %v", len(body), len(data), err)
		}
		for i, v := range data {
			wantBits := uint64(sentinel)
			if i < covered {
				wantBits = binary.LittleEndian.Uint64(body[i*8:])
			}
			if got := math.Float64bits(v); got != wantBits {
				t.Fatalf("element %d = %#x, want %#x (committed %v)", i, got, wantBits, committed)
			}
		}
	})
}
