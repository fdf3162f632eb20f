package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// marshal is encoding/json's encoding of v with HTML escaping on or off.
func marshal(t *testing.T, v any, escapeHTML bool) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	strs := []string{"", "plain", `q"uote`, `back\slash`, "<a href='x'>&amp;</a>", "tab\there",
		"nl\n", "\x00\x1f\x7f", "café", "  ", "a\xffb", "\xed\xa0\x80", "method=Lorenzo 1-Layer stage=primary"}
	for b := 0; b < 256; b++ {
		strs = append(strs, string(rune(b)), "x"+string([]byte{byte(b)})+"y")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(0x1c + rng.Intn(0x66)) // mostly printable ASCII, a few controls and DEL
		}
		strs = append(strs, string(b))
	}
	for _, s := range strs {
		for _, html := range []bool{true, false} {
			got := string(AppendString([]byte("prefix"), s, html))
			if want := "prefix" + marshal(t, s, html); got != want {
				t.Errorf("AppendString(%q, html=%v) = %s, want %s", s, html, got, want)
			}
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99999e-7, 1e20, 1e21, 1e22,
		-1e21, 123456789012345678901234.0, 1e-10, 1.5e-300, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 287.5, 30 + 1.0/7}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
		fs = append(fs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range fs {
		got := string(AppendFloat(nil, f))
		if want := marshal(t, f, true); got != want {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
		back, rest, ok := Float([]byte(got))
		if !ok || len(rest) != 0 || math.Float64bits(back) != math.Float64bits(f) {
			t.Errorf("Float(%s) = %v, %q, %v; want %v", got, back, rest, ok, f)
		}
	}
}

// TestScannersMatchUnmarshal holds each scanner to json.Unmarshal: where a
// scanner accepts a token, Unmarshal into the matching Go type accepts it
// too and gives the same value.
func TestScannersMatchUnmarshal(t *testing.T) {
	tokens := []string{"0", "-0", "1", "01", "-", "1.", ".5", "1.5", "1e3", "1E+3", "1e-7", "1e", "-1.25e-300",
		"1e400", "18446744073709551615", "18446744073709551616", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809", "true", "false",
		"tru", "null", `"abc"`, `"a\"b"`, `"caf` + "\xc3\xa9" + `"`, `"<>&"`, `"unterminated`}
	for _, tok := range tokens {
		in := []byte(tok)
		if v, rest, ok := Uint(in); ok && len(rest) == 0 {
			var want uint64
			if err := json.Unmarshal(in, &want); err != nil || want != v {
				t.Errorf("Uint(%s) = %d; Unmarshal %d, %v", tok, v, want, err)
			}
		}
		if v, rest, ok := Int64(in); ok && len(rest) == 0 {
			var want int64
			if err := json.Unmarshal(in, &want); err != nil || want != v {
				t.Errorf("Int64(%s) = %d; Unmarshal %d, %v", tok, v, want, err)
			}
		}
		if v, rest, ok := Float(in); ok && len(rest) == 0 {
			var want float64
			if err := json.Unmarshal(in, &want); err != nil || math.Float64bits(want) != math.Float64bits(v) {
				t.Errorf("Float(%s) = %v; Unmarshal %v, %v", tok, v, want, err)
			}
		}
		if v, rest, ok := Bool(in); ok && len(rest) == 0 {
			var want bool
			if err := json.Unmarshal(in, &want); err != nil || want != v {
				t.Errorf("Bool(%s) = %v; Unmarshal %v, %v", tok, v, want, err)
			}
		}
		if v, rest, ok := String(in); ok && len(rest) == 0 {
			var want string
			if err := json.Unmarshal(in, &want); err != nil || want != string(v) {
				t.Errorf("String(%s) = %q; Unmarshal %q, %v", tok, v, want, err)
			}
		}
	}
	for _, c := range []struct {
		tok  string
		want bool
	}{{"01", false}, {"1.", false}, {".5", false}, {"1e", false}, {"-", false}, {"1e400", false}, {"1e-7", true}} {
		if _, rest, ok := Float([]byte(c.tok)); (ok && len(rest) == 0) != c.want {
			t.Errorf("Float(%s) accepted = %v, want %v", c.tok, ok && len(rest) == 0, c.want)
		}
	}
}

func TestMembersShape(t *testing.T) {
	keys := []string{"a", "b", "c"}
	for _, c := range []struct {
		in   string
		want bool
	}{
		{`{}`, true}, {`{"a":1}`, true}, {`{"a":1,"c":3}`, true}, {`{"a":1,"b":2,"c":3}x`, true},
		{`{"b":2,"a":1}`, false}, {`{"a":1,"a":1}`, false}, {`{"d":1}`, false}, {`{ "a":1}`, false},
		{`{"a":1,}`, false}, {`{,}`, false}, {`{"a":1`, false}, {`{"a" :1}`, false}, {`[1]`, false},
	} {
		var seen []int
		rest, ok := Members([]byte(c.in), keys, func(k int, b []byte) ([]byte, bool) {
			seen = append(seen, k)
			_, rest, ok := Uint(b)
			return rest, ok
		})
		if ok != c.want {
			t.Errorf("Members(%s) ok = %v, want %v (keys %v)", c.in, ok, c.want, seen)
		}
		if ok && c.in[len(c.in)-1] == 'x' && string(rest) != "x" {
			t.Errorf("Members(%s) rest = %q, want x", c.in, rest)
		}
	}
}
