package journal

import (
	"encoding/json"
	"fmt"
	"math"
)

// Kind says which body a decoded journal record carries.
type Kind uint8

const (
	// KindIntent is a recovery intent (Record.Intent).
	KindIntent Kind = iota + 1
	// KindOutcome is the outcome of an intent (Record.Outcome).
	KindOutcome
)

// Record is one decoded journal line: an intent or an outcome, as Kind says.
type Record struct {
	Kind    Kind
	Intent  Intent
	Outcome Outcome
}

// DecodeRecord decodes one raw journal line (as delivered by a Sink or by
// Records). The record shares no memory with line.
func DecodeRecord(line []byte) (Record, error) {
	var d Decoder
	return d.Decode(line)
}

// A Decoder decodes journal lines like DecodeRecord, and keeps one copy of
// each allocation name, tenant and outcome detail it has seen (up to
// maxInterned of them), so replaying a journal allocates per distinct
// string, not per record. The zero Decoder is ready to use; it is not safe
// for concurrent use.
type Decoder struct {
	strs map[string]string
}

// maxInterned bounds a Decoder's string table: failure details carry
// offsets, so a long journal can hold any number of distinct ones.
const maxInterned = 1024

// Decode decodes one journal line. Lines in exactly the shape append writes
// take a fast path; every other line takes json.Unmarshal, the reference,
// which the fast path equals on every line it accepts (FuzzDecodeRecord).
func (d *Decoder) Decode(line []byte) (Record, error) {
	if rec, ok := d.decodeFast(line); ok {
		return rec, nil
	}
	return decodeJSON(line)
}

// decodeJSON is the reference decoder.
func decodeJSON(line []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, fmt.Errorf("journal: decode record: %w", err)
	}
	switch env.Kind {
	case "intent":
		if env.Intent == nil {
			return Record{}, fmt.Errorf("journal: intent record without body")
		}
		return Record{Kind: KindIntent, Intent: *env.Intent}, nil
	case "outcome":
		if env.Outcome == nil {
			return Record{}, fmt.Errorf("journal: outcome record without body")
		}
		return Record{Kind: KindOutcome, Outcome: *env.Outcome}, nil
	default:
		return Record{}, fmt.Errorf("journal: unknown record kind %q", env.Kind)
	}
}

// The body keys of each kind, in the order append writes them.
var (
	intentKeys  = []string{"id", "alloc", "tenant", "addr", "off", "valbits"}
	outcomeKeys = []string{"id", "ok", "detail", "valbits"}
)

// decodeFast decodes the shape append writes and declines (ok=false)
// anything else. It accepts the envelope byte for byte, then a body whose
// keys come in the written order, each at most once (any may be absent, as
// omitempty leaves them), with no whitespace; integers in plain decimal that
// fit their field; ok as true or false; and strings of printable ASCII with
// no escapes. json.Unmarshal gives the same record for every such line.
func (d *Decoder) decodeFast(line []byte) (Record, bool) {
	const intentHead, outcomeHead = `{"k":"intent","i":{`, `{"k":"outcome","o":{`
	var (
		rec  Record
		keys []string
	)
	switch {
	case hasPrefix(line, intentHead):
		rec.Kind, keys, line = KindIntent, intentKeys, line[len(intentHead):]
	case hasPrefix(line, outcomeHead):
		rec.Kind, keys, line = KindOutcome, outcomeKeys, line[len(outcomeHead):]
	default:
		return rec, false
	}
	var (
		id, addr, bits        uint64
		off                   int
		okay                  bool
		alloc, tenant, detail string
	)
	next := 0 // keys[next:] may still follow
	for n := 0; ; n++ {
		if len(line) == 0 {
			return rec, false
		}
		if line[0] == '}' {
			line = line[1:]
			break
		}
		if n > 0 {
			if line[0] != ',' {
				return rec, false
			}
			line = line[1:]
		}
		key, rest, ok := asciiString(line)
		if !ok || len(rest) == 0 || rest[0] != ':' {
			return rec, false
		}
		line = rest[1:]
		j := next
		for j < len(keys) && keys[j] != string(key) {
			j++
		}
		if j == len(keys) {
			return rec, false
		}
		next = j + 1
		switch keys[j] {
		case "id":
			id, line, ok = uintValue(line)
		case "addr":
			addr, line, ok = uintValue(line)
		case "valbits":
			bits, line, ok = uintValue(line)
		case "off":
			off, line, ok = intValue(line)
		case "ok":
			okay, line, ok = boolValue(line)
		case "alloc":
			alloc, line, ok = d.stringValue(line)
		case "tenant":
			tenant, line, ok = d.stringValue(line)
		case "detail":
			detail, line, ok = d.stringValue(line)
		}
		if !ok {
			return rec, false
		}
	}
	if string(line) != "}" {
		return rec, false
	}
	if rec.Kind == KindIntent {
		rec.Intent = Intent{ID: id, Alloc: alloc, Tenant: tenant, Addr: addr, Offset: off,
			Detected: math.Float64frombits(bits)}
	} else {
		rec.Outcome = Outcome{ID: id, OK: okay, Detail: detail, NewBits: bits}
	}
	return rec, true
}

// asciiString splits a leading JSON string of printable ASCII without
// escapes off b: its contents and what follows the closing quote.
func asciiString(b []byte) (s, rest []byte, ok bool) {
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

// stringValue is asciiString with the contents interned.
func (d *Decoder) stringValue(b []byte) (string, []byte, bool) {
	s, rest, ok := asciiString(b)
	if !ok {
		return "", nil, false
	}
	if v, hit := d.strs[string(s)]; hit {
		return v, rest, true
	}
	v := string(s)
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	if len(d.strs) < maxInterned {
		d.strs[v] = v
	}
	return v, rest, true
}

// uintValue splits a leading unsigned JSON integer (no sign, fraction or
// exponent; no leading zero) off b, declining one past math.MaxUint64.
func uintValue(b []byte) (uint64, []byte, bool) {
	var v uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		dig := uint64(b[i] - '0')
		if v > (math.MaxUint64-dig)/10 {
			return 0, nil, false
		}
		v = 10*v + dig
	}
	if i == 0 || (b[0] == '0' && i > 1) {
		return 0, nil, false
	}
	return v, b[i:], true
}

// intValue is uintValue with an optional minus sign, declining a value
// outside the int range.
func intValue(b []byte) (int, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	mag, rest, ok := uintValue(b)
	switch {
	case !ok, !neg && mag > math.MaxInt, neg && mag > math.MaxInt+1:
		return 0, nil, false
	case neg:
		return -int(mag), rest, true
	}
	return int(mag), rest, true
}

// boolValue splits a leading JSON true or false off b.
func boolValue(b []byte) (bool, []byte, bool) {
	switch {
	case hasPrefix(b, "true"):
		return true, b[4:], true
	case hasPrefix(b, "false"):
		return false, b[5:], true
	}
	return false, nil, false
}

// hasPrefix reports whether b begins with p, without converting b.
func hasPrefix(b []byte, p string) bool { return len(b) >= len(p) && string(b[:len(p)]) == p }
