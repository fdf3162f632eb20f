// Package jsonwire holds the pieces of the hand-written JSON codecs on the
// recovery path. Each record encoded or decoded once per recovery (the
// journal envelope, the outcome feed's page, an ingested event and its
// result) declares one appender and one decoder beside its type, built from
// these pieces:
//
//   - an appender writes exactly the bytes encoding/json writes for the
//     record, into a buffer the caller reuses;
//   - a decoder takes exactly the shape the appender writes — no
//     whitespace, keys in written order, each at most once, strings of
//     printable ASCII without escapes — and declines (ok=false) anything
//     else, which its caller hands to encoding/json.
//
// encoding/json stays the reference: the codecs' tests hold each appender to
// its output and each decoder to json.Unmarshal on every input it accepts.
package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// AppendString appends s as a JSON string, byte for byte as encoding/json
// writes it with HTML escaping on or off. A string with a byte outside
// printable ASCII is handed to encoding/json.
func AppendString(dst []byte, s string, escapeHTML bool) []byte {
	mark := len(dst)
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c < 0x20 || c >= 0x80:
			return appendStringJSON(dst[:mark], s, escapeHTML)
		case c == '"' || c == '\\':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', c)
		case escapeHTML && (c == '<' || c == '>' || c == '&'):
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			continue
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hex = "0123456789abcdef"

// appendStringJSON is AppendString by encoding/json itself.
func appendStringJSON(dst []byte, s string, escapeHTML bool) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	// Encode is handed a copy: s itself never reaches the heap, so a caller
	// appending a record it keeps on its stack keeps it there.
	_ = enc.Encode(strings.Clone(s)) // every Go string encodes
	return append(dst, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
}

// AppendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that round-trips, in 'f' format, switching to 'e' below
// 1e-6 and from 1e21 with a two-digit negative exponent cut to one (e-07 →
// e-7). encoding/json refuses NaN and ±Inf, so callers must too.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// Members decodes the JSON object at the head of b in the written shape:
// each key is one of keys, in that order, at most once (any may be absent,
// as omitempty leaves them). For each member it calls value with the key's
// index and the bytes after the colon; value decodes the member's value and
// returns what follows it. Members returns what follows the closing brace.
func Members(b []byte, keys []string, value func(k int, b []byte) ([]byte, bool)) ([]byte, bool) {
	if len(b) == 0 || b[0] != '{' {
		return nil, false
	}
	b = b[1:]
	next := 0 // keys[next:] may still follow
	for n := 0; ; n++ {
		if len(b) == 0 {
			return nil, false
		}
		if b[0] == '}' {
			return b[1:], true
		}
		if n > 0 {
			if b[0] != ',' {
				return nil, false
			}
			b = b[1:]
		}
		j := next
		for j < len(keys) && !hasKey(b, keys[j]) {
			j++
		}
		if j == len(keys) {
			return nil, false
		}
		next = j + 1
		var ok bool
		if b, ok = value(j, b[len(keys[j])+3:]); !ok {
			return nil, false
		}
	}
}

// hasKey reports whether b begins with key, quoted, and a colon.
func hasKey(b []byte, key string) bool {
	n := len(key)
	return len(b) > n+2 && b[0] == '"' && string(b[1:n+1]) == key && b[n+1] == '"' && b[n+2] == ':'
}

// Elements decodes the JSON array at the head of b, calling elem with the
// bytes at each element; elem decodes it and returns what follows it.
// Elements returns what follows the closing bracket.
func Elements(b []byte, elem func(b []byte) ([]byte, bool)) ([]byte, bool) {
	if len(b) == 0 || b[0] != '[' {
		return nil, false
	}
	b = b[1:]
	for n := 0; ; n++ {
		if len(b) == 0 {
			return nil, false
		}
		if b[0] == ']' {
			return b[1:], true
		}
		if n > 0 {
			if b[0] != ',' {
				return nil, false
			}
			b = b[1:]
		}
		var ok bool
		if b, ok = elem(b); !ok {
			return nil, false
		}
	}
}

// String splits a leading JSON string of printable ASCII without escapes
// off b: its contents and what follows the closing quote.
func String(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return b[1:i], b[i+1:], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// StringValue splits a leading string off b as String does and returns it
// as the one of known it equals, or as a new string: decoding a closed
// vocabulary (a status, code, method or stage name) allocates nothing.
func StringValue(b []byte, known ...string) (string, []byte, bool) {
	s, rest, ok := String(b)
	if !ok {
		return "", nil, false
	}
	for _, k := range known {
		if k == string(s) {
			return k, rest, true
		}
	}
	return string(s), rest, true
}

// Uint splits a leading unsigned JSON integer (no sign, fraction or
// exponent; no leading zero) off b, declining one past math.MaxUint64.
func Uint(b []byte) (uint64, []byte, bool) {
	var v uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		dig := uint64(b[i] - '0')
		if v >= math.MaxUint64/10 && (v > math.MaxUint64/10 || dig > math.MaxUint64%10) {
			return 0, nil, false
		}
		v = 10*v + dig
	}
	if i == 0 || (b[0] == '0' && i > 1) {
		return 0, nil, false
	}
	return v, b[i:], true
}

// Int64 is Uint with an optional minus sign, declining a value outside the
// int64 range.
func Int64(b []byte) (int64, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	mag, rest, ok := Uint(b)
	switch {
	case !ok, !neg && mag > math.MaxInt64, neg && mag > math.MaxInt64+1:
		return 0, nil, false
	case neg:
		return -int64(mag), rest, true
	}
	return int64(mag), rest, true
}

// Int is Int64 declining a value outside the int range.
func Int(b []byte) (int, []byte, bool) {
	v, rest, ok := Int64(b)
	if !ok || v < math.MinInt || v > math.MaxInt {
		return 0, nil, false
	}
	return int(v), rest, true
}

// Bool splits a leading JSON true or false off b.
func Bool(b []byte) (bool, []byte, bool) {
	switch {
	case HasPrefix(b, "true"):
		return true, b[4:], true
	case HasPrefix(b, "false"):
		return false, b[5:], true
	}
	return false, nil, false
}

// Float splits a leading JSON number off b and parses it as
// encoding/json does, declining one that does not fit a float64.
func Float(b []byte) (float64, []byte, bool) {
	n := numberLen(b)
	if n == 0 {
		return 0, nil, false
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		return 0, nil, false
	}
	return f, b[n:], true
}

// numberLen returns the length of the JSON number at the head of b, or 0
// when b does not start with one.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(b, i+1); j > i+1 {
			i = j
		} else {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// Space reports whether b is empty or JSON whitespace only: what may follow
// a document that json.Unmarshal accepts.
func Space(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// HasPrefix reports whether b begins with p, without converting b.
func HasPrefix(b []byte, p string) bool { return len(b) >= len(p) && string(b[:len(p)]) == p }
