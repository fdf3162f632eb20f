package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// encode is encoding/json's encoding of v with HTML escaping on or off,
// without the Encoder's newline: the reference every appender is held to.
func encode(t testing.TB, v any, escapeHTML bool) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(buf.String(), "\n")
}

// wireGen draws wire values at the edges the codecs must get right: strings
// with quotes, HTML characters, controls, U+2028 and invalid UTF-8; floats
// at encoding/json's 'f'/'e' switch points; integers at their extremes.
type wireGen struct{ rng *rand.Rand }

var genStrings = []string{"", "field", "t0", "Lorenzo 1-Layer", "primary", "accepted",
	"4bf92f3577b34da6a3ce929d0e0e4736", `allocation "x" in tenant "y"`, `back\slash`, "<b>&amp;</b>",
	"tab\tnl\n", "\x00\x7f", "café", "line" + string(rune(0x2028)) + "sep", "bad\xffutf8"}

var genFloats = []float64{0, math.Copysign(0, -1), 1, -287.5, 1e-6, 9.999999999999999e-7, 1e-7,
	1e20, 1e21, 999999999999999900000, -1e21, 5e-324, math.MaxFloat64, 30 + 1.0/7}

var genInts = []int64{0, 1, -1, 132, math.MaxInt64, math.MinInt64}

var genUints = []uint64{0, 1, 0x7fff12340000, math.MaxUint64, 0x7ff8000000000001}

func (g wireGen) str() string { return genStrings[g.rng.Intn(len(genStrings))] }
func (g wireGen) int() int64  { return genInts[g.rng.Intn(len(genInts))] }
func (g wireGen) bool() bool  { return g.rng.Intn(2) == 0 }

func (g wireGen) uint() uint64 {
	if g.bool() {
		return g.rng.Uint64() >> uint(g.rng.Intn(64))
	}
	return genUints[g.rng.Intn(len(genUints))]
}

func (g wireGen) float() float64 {
	if g.bool() {
		return g.rng.NormFloat64() * math.Pow(10, float64(g.rng.Intn(50)-25))
	}
	return genFloats[g.rng.Intn(len(genFloats))]
}

func (g wireGen) record() OutcomeRecord {
	return OutcomeRecord{Seq: g.uint(), Tenant: g.str(), Alloc: g.str(), Offset: int(g.int()),
		Addr: g.uint(), OK: g.bool(), Error: g.str(), Code: g.str(), Method: g.str(), Stage: g.str(),
		Tuned: g.bool(), OldBits: g.uint(), New: g.float(), NewBits: g.uint(), Attempts: int(g.int()),
		Replayed: g.bool(), Probe: g.bool(), TraceID: g.str(), UnixNano: g.int()}
}

func (g wireGen) page() OutcomesPage {
	p := OutcomesPage{Next: g.uint(), Dropped: g.bool()}
	if g.rng.Intn(8) > 0 {
		p.Outcomes = make([]OutcomeRecord, g.rng.Intn(4))
		for i := range p.Outcomes {
			p.Outcomes[i] = g.record()
		}
	}
	return p
}

func (g wireGen) eventRequest() EventRequest {
	ev := EventRequest{Kind: g.str(), Addr: g.uint(), Alloc: g.str(), Bit: int(g.int())}
	if g.bool() {
		off := int(g.int())
		ev.Offset = &off
	}
	return ev
}

func (g wireGen) eventResult() EventResult {
	res := EventResult{Status: g.str(), TraceID: g.str()}
	if g.bool() {
		res.Error = &ErrorDetail{Code: g.str(), Message: g.str(), Latched: g.bool()}
	}
	return res
}

// TestAppendersMatchEncodingJSON holds every appender to encoding/json over
// generated values, with HTML escaping on and off, and every decoder to
// json.Unmarshal on what the appender wrote: the written shape must take the
// fast path whenever its strings are plain printable ASCII.
func TestAppendersMatchEncodingJSON(t *testing.T) {
	g := wireGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 3000; i++ {
		html := g.bool()
		page, ev, res := g.page(), g.eventRequest(), g.eventResult()
		for _, c := range []struct {
			v    any
			got  []byte
			fast func([]byte) (any, bool)
			ref  func([]byte) (any, error)
		}{
			{page, page.AppendJSON(nil, html),
				func(b []byte) (any, bool) { return decodeOutcomesPageFast(b) },
				func(b []byte) (any, error) { var v OutcomesPage; err := json.Unmarshal(b, &v); return v, err }},
			{ev, ev.AppendJSON(nil, html),
				func(b []byte) (any, bool) {
					v, rest, ok := decodeEventRequestFast(b)
					return v, ok && len(rest) == 0
				},
				func(b []byte) (any, error) { var v EventRequest; err := json.Unmarshal(b, &v); return v, err }},
			{res, res.AppendJSON(nil, html),
				func(b []byte) (any, bool) { return decodeEventResultFast(b) },
				func(b []byte) (any, error) { var v EventResult; err := json.Unmarshal(b, &v); return v, err }},
		} {
			if want := encode(t, c.v, html); string(c.got) != want {
				t.Fatalf("html=%v: appended\n%s\nencoding/json\n%s", html, c.got, want)
			}
			ref, err := c.ref(c.got)
			if err != nil {
				t.Fatalf("json.Unmarshal(%s): %v", c.got, err)
			}
			fast, ok := c.fast(c.got)
			if ok && !sameWire(fast, ref) {
				t.Fatalf("%s: fast path %+v, json.Unmarshal %+v", c.got, fast, ref)
			}
			if !ok && plainASCII(c.got) {
				t.Errorf("fast path declined a written value: %s", c.got)
			}
		}
	}
}

// plainASCII reports whether b's strings can take the fast path: printable
// ASCII and no escapes.
func plainASCII(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c == '\\' || c >= 0x80 {
			return false
		}
	}
	return true
}

// sameWire is reflect.DeepEqual with every record's New compared by its bits
// (a NaN from new_valbits is the case that matters).
func sameWire(a, b any) bool {
	pa, okA := a.(OutcomesPage)
	pb, okB := b.(OutcomesPage)
	if !okA || !okB {
		return reflect.DeepEqual(a, b)
	}
	if len(pa.Outcomes) != len(pb.Outcomes) || (pa.Outcomes == nil) != (pb.Outcomes == nil) {
		return false
	}
	for i := range pa.Outcomes {
		ra, rb := pa.Outcomes[i], pb.Outcomes[i]
		if math.Float64bits(ra.New) != math.Float64bits(rb.New) {
			return false
		}
		ra.New, rb.New = 0, 0
		if ra != rb {
			return false
		}
	}
	return pa.Next == pb.Next && pa.Dropped == pb.Dropped
}

// TestNonFiniteNewOmitted: a record whose New encoding/json cannot write is
// still written, without new, and both decoders take New back from
// new_valbits bit for bit.
func TestNonFiniteNewOmitted(t *testing.T) {
	for _, bits := range []uint64{0x7ff8000000000001, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1))} {
		rec := OutcomeRecord{Seq: 3, Alloc: "field", OK: true, Stage: "offlined",
			New: math.Float64frombits(bits), NewBits: bits, Attempts: 1}
		page := OutcomesPage{Next: 4, Outcomes: []OutcomeRecord{rec}}
		wire := page.AppendJSON(nil, false)
		want := `{"next":4,"outcomes":[{"seq":3,"alloc":"field","offset":0,"ok":true,"stage":"offlined","old_valbits":0,` +
			`"new_valbits":` + encode(t, bits, false) + `,"attempts":1,"unix_nano":0}]}`
		if string(wire) != want {
			t.Fatalf("wire %s, want %s", wire, want)
		}
		var ref OutcomesPage
		if err := json.Unmarshal(wire, &ref); err != nil {
			t.Fatal(err)
		}
		fast, ok := decodeOutcomesPageFast(wire)
		if !ok {
			t.Fatalf("fast path declined %s", wire)
		}
		for _, p := range []OutcomesPage{ref, fast} {
			if got := math.Float64bits(p.Outcomes[0].New); got != bits {
				t.Errorf("decoded New bits %#x, want %#x", got, bits)
			}
		}
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses is answered with
// 500 and the internal error envelope, not 200 and an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"v": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != CodeInternal {
		t.Errorf("body %q (%v), want the internal error envelope", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]string{"a": "<b>"})
	if rec.Code != http.StatusCreated || rec.Body.String() != `{"a":"<b>"}`+"\n" {
		t.Errorf("got %d %q, want 201 with the value unescaped", rec.Code, rec.Body.String())
	}
}

// TestDecodeEventBodyFirstValue: the ingest route keeps json.Decoder's
// semantics on both paths — the first value counts, leading whitespace is
// skipped, trailing bytes are never looked at — and its errors.
func TestDecodeEventBodyFirstValue(t *testing.T) {
	long := `{"alloc":"field","offset":5}` + strings.Repeat(" ", 8<<10) + "trailing"
	for _, body := range []string{
		`{"alloc":"field","offset":5,"bit":3}`, `{"alloc":"field","offset":5} garbage`, ` {"alloc":"field"}`,
		`{"kind":"ce","addr":4096,"bit":-1}`, `{"Alloc":"field"}`, `{"alloc":"fé"}`, long,
		strings.Repeat(" ", 8<<10) + `{"addr":1}`, ``, `{`, `{"offset":"x"}`, `[1]`, `{"offset":1e3}`,
	} {
		var want EventRequest
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&want)
		got, err := decodeEventBody(strings.NewReader(body), getBuf())
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%.40q: error %v, want %v", body, err, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%.40q: decoded %+v, want %+v", body, got, want)
		}
	}
}

// wireSeeds are the fuzzers' shared seeds: the near misses around the
// written shapes.
var wireSeeds = []string{
	`{}`, `{"a":1}`, ` {}`, `{} `, "{}\n", `{}x`, `null`, `[]`, `{"outcomes":null}`,
	`" "`, `{"alloc":"caf` + "\xc3\xa9" + `"}`, `{"alloc":"a` + "\xff" + `b"}`, `{"alloc":"a\"b"}`,
	`{"alloc":"<x>"}`, `{"alloc":"` + "\\" + `u003cx"}`, `{"alloc":"` + string(rune(0x2028)) + `"}`,
	`{"offset":-0}`, `{"offset":01}`, `{"offset":18446744073709551615}`,
	`{"offset":-9223372036854775808}`, `{"offset":-9223372036854775809}`,
	`{"addr":18446744073709551615}`, `{"addr":18446744073709551616}`, `{"addr":-1}`,
}

func FuzzOutcomesPage(f *testing.F) {
	g := wireGen{rand.New(rand.NewSource(2))}
	for i := 0; i < 8; i++ {
		p := g.page()
		f.Add(p.AppendJSON(nil, false))
	}
	for _, s := range append(wireSeeds,
		`{"next":1,"outcomes":[{"seq":1,"alloc":"g","offset":0,"ok":true,"old_valbits":0,"new":-0,"new_valbits":9223372036854775808,"attempts":1,"unix_nano":-9223372036854775808}]}`,
		`{"next":1,"outcomes":[{"seq":1,"new":1e-7},{"seq":2,"new":1e21},{"seq":3,"new":9.999999999999999e-7},{"seq":4,"new":1e400}]}`,
		`{"next":1,"outcomes":[{"seq":1,"new_valbits":9221120237041090561}]}`,
		`{"next":18446744073709551615,"dropped":true,"outcomes":[]}`,
		`{"next":1,"outcomes":[{"seq":1,"new":1,"new":2}]}`,
		`{"next":1,"outcomes":[{"seq":1},]}`,
		`{"next":1,"outcomes":[{"unix_nano":1,"seq":1}]}`,
		`{"next":1,"outcomes":[{"seq":1,"stage":"offlined","method":"Lorenzo 1-Layer","code":"internal"}]}`,
	) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := decodeOutcomesPageFast(data)
		if !ok {
			return
		}
		var ref OutcomesPage
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("fast path accepted %q, which json.Unmarshal refuses: %v", data, err)
		}
		if !sameWire(fast, ref) {
			t.Fatalf("%q: fast path %+v, json.Unmarshal %+v", data, fast, ref)
		}
	})
}

func FuzzEventRequest(f *testing.F) {
	g := wireGen{rand.New(rand.NewSource(3))}
	for i := 0; i < 8; i++ {
		ev := g.eventRequest()
		f.Add(ev.AppendJSON(nil, true))
	}
	for _, s := range append(wireSeeds, `{"kind":"ce","addr":4096,"bit":-1}`, `{"alloc":"field","offset":5,"bit":31}`,
		`{"bit":9223372036854775807}`, `{"bit":1.5}`, `{"kind":"due","kind":"ce"}`, `{"offset":null}`) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, rest, ok := decodeEventRequestFast(data)
		if !ok {
			return
		}
		// The ingest route takes the first value and never reads the rest;
		// the stream route, like json.Unmarshal, needs the rest to be space.
		var first EventRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&first); err != nil {
			t.Fatalf("fast path accepted %q, which json.Decoder refuses: %v", data, err)
		}
		if !reflect.DeepEqual(fast, first) {
			t.Fatalf("%q: fast path %+v, json.Decoder %+v", data, fast, first)
		}
		got, err := decodeEventRequest(data)
		var ref EventRequest
		refErr := json.Unmarshal(data, &ref)
		if (err == nil) != (refErr == nil) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("%q (rest %q): decodeEventRequest %+v, %v; json.Unmarshal %+v, %v", data, rest, got, err, ref, refErr)
		}
	})
}

func FuzzEventResult(f *testing.F) {
	g := wireGen{rand.New(rand.NewSource(4))}
	for i := 0; i < 8; i++ {
		res := g.eventResult()
		f.Add(res.AppendJSON(nil, i%2 == 0))
	}
	for _, s := range append(wireSeeds, `{"status":"accepted","trace_id":"4bf92f3577b34da6a3ce929d0e0e4736"}`,
		`{"status":"latched","error":{"code":"overloaded","message":"service: overloaded","latched":true},"trace_id":"x"}`,
		`{"error":{"code":"not_registered","message":"m"}}`, `{"error":null}`, `{"error":{}}`, `{"status":"accepted"}`+"\n") {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, ok := decodeEventResultFast(data)
		if !ok {
			return
		}
		var ref EventResult
		if err := json.Unmarshal(data, &ref); err != nil {
			t.Fatalf("fast path accepted %q, which json.Unmarshal refuses: %v", data, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%q: fast path %+v, json.Unmarshal %+v", data, fast, ref)
		}
	})
}

// benchPageRecords is a 64-record page as one tenant's poller reads it.
func benchPageRecords() OutcomesPage {
	p := OutcomesPage{Next: 1065, Outcomes: make([]OutcomeRecord, 64)}
	for i := range p.Outcomes {
		v := 287.5 + float64(i)/7
		p.Outcomes[i] = OutcomeRecord{Seq: uint64(1001 + i), Tenant: "t3", Alloc: "field", Offset: 977 * i,
			Addr: 0x7f0000000000 + 8*uint64(i), OK: true, Method: "Lorenzo 1-Layer", Stage: "primary",
			OldBits: 0x7ff8000000000001, New: v, NewBits: math.Float64bits(v), Attempts: 1,
			TraceID:  "4bf92f3577b34da6a3ce929d0e0e47" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			UnixNano: 1760000000000000000 + int64(i)}
	}
	return p
}

// BenchmarkOutcomesPage is a 64-record page through the server's appender
// and the SDK's decoder: ns, B and allocations per page.
func BenchmarkOutcomesPage(b *testing.B) {
	page := benchPageRecords()
	wire := page.AppendJSON(nil, false)
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(wire))
		for i := 0; i < b.N; i++ {
			buf = page.AppendJSON(buf[:0], false)
		}
	})
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if benchPage, err = DecodeOutcomesPage(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}
