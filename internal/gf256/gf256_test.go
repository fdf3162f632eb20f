package gf256

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldAxiomsQuick(t *testing.T) {
	// Multiplication is commutative and associative; distributes over add
	// (XOR in GF(2^8)).
	if err := quick.Check(func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }, nil); err != nil {
		t.Error("commutativity:", err)
	}
	if err := quick.Check(func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}, nil); err != nil {
		t.Error("associativity:", err)
	}
	if err := quick.Check(func(a, b, c byte) bool {
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c)
	}, nil); err != nil {
		t.Error("distributivity:", err)
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("a*1 != a for %d", a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("a*0 != 0 for %d", a)
		}
	}
}

func TestInvDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Mul(byte(a), Inv(byte(a))) != 1 {
			t.Fatalf("a * a^-1 != 1 for %d", a)
		}
	}
	// Division is multiplication by the inverse: (a * b^-1) * b == a.
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if Mul(Mul(byte(a), Inv(byte(b))), byte(b)) != byte(a) {
				t.Fatalf("(%d / %d) * %d != %d", a, b, b, a)
			}
		}
	}
}

func TestInvPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpGeneratorOrder(t *testing.T) {
	if Exp(0) != 1 || Exp(255) != 1 {
		t.Error("generator order wrong")
	}
	seen := map[byte]bool{}
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if seen[v] {
			t.Fatalf("Exp not injective over [0,255): repeat at %d", i)
		}
		seen[v] = true
	}
}

func TestMatrixIdentityMul(t *testing.T) {
	m := Vandermonde(4, 4)
	if got := identity(4).Mul(m); !equal(got, m) {
		t.Error("I*m != m")
	}
	if got := m.Mul(identity(4)); !equal(got, m) {
		t.Error("m*I != m")
	}
}

func TestMatrixInvert(t *testing.T) {
	m := Vandermonde(5, 5)
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !equal(m.Mul(inv), identity(5)) {
		t.Error("m * m^-1 != I")
	}
	if !equal(inv.Mul(m), identity(5)) {
		t.Error("m^-1 * m != I")
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := NewMatrix(2, 2) // zero matrix
	if _, err := m.Invert(); err == nil {
		t.Error("singular matrix inverted")
	}
	r := NewMatrix(2, 3)
	if _, err := r.Invert(); err == nil {
		t.Error("rectangular matrix inverted")
	}
}

func TestVandermondeAnyRowsInvertible(t *testing.T) {
	v := Vandermonde(8, 4)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rows := rng.Perm(8)[:4]
		if _, err := v.SubMatrix(rows).Invert(); err != nil {
			t.Fatalf("rows %v not invertible: %v", rows, err)
		}
	}
}

func TestCodecValidation(t *testing.T) {
	if _, err := NewCodec(0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCodec(1, -1); err == nil {
		t.Error("m<0 accepted")
	}
	if _, err := NewCodec(200, 100); err == nil {
		t.Error("k+m>255 accepted")
	}
}

func TestCodecSystematic(t *testing.T) {
	c, err := NewCodec(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Top k rows of the encoding matrix are the identity: data shards pass
	// through untouched.
	for r := 0; r < 4; r++ {
		for col := 0; col < 4; col++ {
			want := byte(0)
			if r == col {
				want = 1
			}
			if c.enc.At(r, col) != want {
				t.Fatalf("enc[%d][%d] = %d, not systematic", r, col, c.enc.At(r, col))
			}
		}
	}
}

func TestEncodeReconstructAllErasurePatterns(t *testing.T) {
	const k, m, size = 4, 2, 64
	c, err := NewCodec(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}

	full := append(append([][]byte{}, data...), parity...)
	// Every pattern of up to m erasures must be recoverable.
	for a := 0; a < k+m; a++ {
		for b := a; b < k+m; b++ {
			shards := make([][]byte, k+m)
			for i := range full {
				cp := append([]byte(nil), full[i]...)
				shards[i] = cp
			}
			shards[a] = nil
			shards[b] = nil // a == b means single erasure
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("erase (%d,%d): %v", a, b, err)
			}
			for i := 0; i < k; i++ {
				for off := range data[i] {
					if shards[i][off] != data[i][off] {
						t.Fatalf("erase (%d,%d): data shard %d wrong at %d", a, b, i, off)
					}
				}
			}
		}
	}
}

func TestReconstructTooManyErasures(t *testing.T) {
	c, _ := NewCodec(3, 1)
	shards := make([][]byte, 4)
	shards[0] = make([]byte, 8)
	shards[1] = make([]byte, 8)
	// two missing, only one parity
	if err := c.Reconstruct(shards); err == nil {
		t.Error("k-1 present shards accepted")
	}
}

func TestReconstructLengthMismatch(t *testing.T) {
	c, _ := NewCodec(2, 1)
	shards := [][]byte{make([]byte, 8), make([]byte, 9), nil}
	if err := c.Reconstruct(shards); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := c.Reconstruct([][]byte{nil, nil}); err == nil {
		t.Error("wrong shard count accepted")
	}
}

func TestEncodeValidation(t *testing.T) {
	c, _ := NewCodec(2, 1)
	if _, err := c.Encode([][]byte{make([]byte, 4)}); err == nil {
		t.Error("wrong shard count accepted")
	}
	if _, err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5)}); err == nil {
		t.Error("ragged shards accepted")
	}
}

func TestCodecQuickRandomErasures(t *testing.T) {
	// Property: for random k, m, data, and a random erasure pattern of at
	// most m shards, reconstruction restores all data shards.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(6)
		m := rng.Intn(4)
		c, err := NewCodec(k, m)
		if err != nil {
			return false
		}
		size := 1 + rng.Intn(32)
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		parity, err := c.Encode(data)
		if err != nil {
			return false
		}
		shards := append(append([][]byte{}, data...), parity...)
		for i := range shards {
			cp := append([]byte(nil), shards[i]...)
			shards[i] = cp
		}
		erased := rng.Perm(k + m)[:rng.Intn(m+1)]
		for _, e := range erased {
			shards[e] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			for off := range data[i] {
				if shards[i][off] != data[i][off] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestM0Codec(t *testing.T) {
	c, err := NewCodec(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	parity, err := c.Encode([][]byte{{1}, {2}, {3}})
	if err != nil || len(parity) != 0 {
		t.Errorf("m=0 Encode = %v, %v", parity, err)
	}
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func equal(a, b *Matrix) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}
