package gf256

import "fmt"

// Codec is a systematic Reed-Solomon erasure codec with k data shards and
// m parity shards. Any k of the k+m shards reconstruct all data shards.
//
// The encoding matrix is a (k+m) x k Vandermonde matrix transformed so its
// top k x k block is the identity (systematic form): data shards pass
// through unchanged, parity shards are linear combinations. Because row
// transformations preserve the any-k-rows-invertible property of the
// Vandermonde matrix, every erasure pattern of at most m shards is
// decodable.
type Codec struct {
	k, m int
	// enc is the full (k+m) x k systematic encoding matrix.
	enc *Matrix
}

// NewCodec creates a codec for k data and m parity shards (k >= 1, m >= 0,
// k+m <= 255).
func NewCodec(k, m int) (*Codec, error) {
	if k < 1 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("gf256: invalid codec parameters k=%d m=%d", k, m)
	}
	v := Vandermonde(k+m, k)
	top := v.SubMatrix(seq(0, k))
	topInv, err := top.Invert()
	if err != nil {
		return nil, fmt.Errorf("gf256: vandermonde top block singular: %w", err)
	}
	return &Codec{k: k, m: m, enc: v.Mul(topInv)}, nil
}

// Encode computes the m parity shards for k equal-length data shards.
func (c *Codec) Encode(data [][]byte) ([][]byte, error) {
	if err := c.checkShards(data); err != nil {
		return nil, err
	}
	size := len(data[0])
	parity := make([][]byte, c.m)
	for j := 0; j < c.m; j++ {
		p := make([]byte, size)
		row := c.enc.Row(c.k + j)
		for i := 0; i < c.k; i++ {
			coef := row[i]
			if coef == 0 {
				continue
			}
			src := data[i]
			for b := range src {
				p[b] ^= Mul(coef, src[b])
			}
		}
		parity[j] = p
	}
	return parity, nil
}

// Reconstruct fills in missing (nil) data shards given at least k surviving
// shards. shards must have length k+m: the first k entries are data shards,
// the rest parity. Present shards must share one length; missing shards are
// nil. Only data shards are reconstructed (parity entries stay nil if
// missing).
func (c *Codec) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("gf256: got %d shards, want %d", len(shards), c.k+c.m)
	}
	size := -1
	var present []int
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("gf256: shard %d has length %d, want %d", i, len(s), size)
		}
		present = append(present, i)
	}
	if len(present) < c.k {
		return fmt.Errorf("gf256: only %d shards present, need %d", len(present), c.k)
	}

	var missingData []int
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			missingData = append(missingData, i)
		}
	}
	if len(missingData) == 0 {
		return nil
	}

	// Pick k present shards, invert the corresponding encoding rows, and
	// recompute the missing data shards.
	rows := present[:c.k]
	sub := c.enc.SubMatrix(rows)
	inv, err := sub.Invert()
	if err != nil {
		return fmt.Errorf("gf256: decode matrix singular: %w", err)
	}
	for _, di := range missingData {
		out := make([]byte, size)
		decodeRow := inv.Row(di)
		for j, r := range rows {
			coef := decodeRow[j]
			if coef == 0 {
				continue
			}
			src := shards[r]
			for b := range src {
				out[b] ^= Mul(coef, src[b])
			}
		}
		shards[di] = out
	}
	return nil
}

func (c *Codec) checkShards(data [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("gf256: got %d data shards, want %d", len(data), c.k)
	}
	size := len(data[0])
	for i, s := range data {
		if len(s) != size {
			return fmt.Errorf("gf256: shard %d has length %d, want %d", i, len(s), size)
		}
	}
	return nil
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
