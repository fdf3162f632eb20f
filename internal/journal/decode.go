package journal

import (
	"encoding/json"
	"fmt"
	"math"

	"spatialdue/internal/jsonwire"
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
// anything else. It accepts the envelope byte for byte, then a body in the
// shape jsonwire.Members takes, integers in plain decimal that fit their
// field and ok as true or false. json.Unmarshal gives the same record for
// every such line.
func (d *Decoder) decodeFast(line []byte) (Record, bool) {
	const intentHead, outcomeHead = `{"k":"intent","i":`, `{"k":"outcome","o":`
	var (
		rec  Record
		keys []string
	)
	switch {
	case jsonwire.HasPrefix(line, intentHead):
		rec.Kind, keys, line = KindIntent, intentKeys, line[len(intentHead):]
	case jsonwire.HasPrefix(line, outcomeHead):
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
	line, ok := jsonwire.Members(line, keys, func(k int, b []byte) (rest []byte, ok bool) {
		switch keys[k] {
		case "id":
			id, rest, ok = jsonwire.Uint(b)
		case "addr":
			addr, rest, ok = jsonwire.Uint(b)
		case "valbits":
			bits, rest, ok = jsonwire.Uint(b)
		case "off":
			off, rest, ok = jsonwire.Int(b)
		case "ok":
			okay, rest, ok = jsonwire.Bool(b)
		case "alloc":
			alloc, rest, ok = d.stringValue(b)
		case "tenant":
			tenant, rest, ok = d.stringValue(b)
		case "detail":
			detail, rest, ok = d.stringValue(b)
		}
		return rest, ok
	})
	if !ok || string(line) != "}" {
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

// stringValue splits a leading string off b as jsonwire.String does, with
// the contents interned.
func (d *Decoder) stringValue(b []byte) (string, []byte, bool) {
	s, rest, ok := jsonwire.String(b)
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
