package journal

import (
	"bufio"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// writeStormJournal writes pairs intent/outcome pairs in the shape a
// two-worker service leaves behind — two intents, then their two outcomes —
// plus dangling trailing intents, and returns the dangling IDs.
func writeStormJournal(tb testing.TB, path string, pairs, dangling int) []uint64 {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	w := bufio.NewWriter(f)
	put := func(e envelope) {
		line, err := json.Marshal(e)
		if err != nil {
			tb.Fatal(err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	intent := func(id uint64) {
		put(envelope{Kind: "intent", Intent: &Intent{ID: id, Alloc: "field", Tenant: []string{"t0", "t1"}[id%2],
			Addr: 0x7f0000000000 + 8*id, Offset: int(id*7919) % 65536, Detected: math.Float64frombits(0x7ff8000000000000 | id)}})
	}
	id := uint64(1)
	for ; id < uint64(pairs); id += 2 {
		intent(id)
		intent(id + 1)
		for _, o := range []uint64{id, id + 1} {
			put(envelope{Kind: "outcome", Outcome: &Outcome{ID: o, OK: true,
				Detail: "method=Lorenzo 1-Layer stage=primary", NewBits: math.Float64bits(30 + float64(o%100)/7)}})
		}
	}
	var open []uint64
	for ; len(open) < dangling; id++ {
		intent(id)
		open = append(open, id)
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return open
}

// TestDecodeFastTakesWrittenLines: every line the journal itself writes —
// intents with and without tenant/address, NaN and Inf payloads, outcomes
// with and without detail/bits — takes the fast path, and it decodes to what
// json.Unmarshal does.
func TestDecodeFastTakesWrittenLines(t *testing.T) {
	r, _, err := OpenRecovery(filepath.Join(t.TempDir(), "j.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var lines [][]byte
	r.SetSink(func(_ uint64, line []byte) { lines = append(lines, append([]byte(nil), line...)) })
	for _, c := range []struct {
		tenant, alloc string
		addr          uint64
		off           int
		v             float64
	}{
		{"", "grid", 0, 0, 1.5},
		{"acme", "field-7", 0x7fff12340000, 132, math.NaN()},
		{"t", "x", 1, 65535, math.Inf(-1)},
	} {
		if _, err := r.Begin(c.tenant, c.alloc, c.addr, c.off, c.v); err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{
		r.FinishValue(1, true, "method=Lorenzo 1-Layer stage=primary", math.Float64bits(2.5)),
		r.Finish(2, false, "core: checkpoint-restart required"),
		r.FinishValue(3, true, "", math.Float64bits(math.Copysign(0, -1))),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	var d Decoder
	for _, line := range lines {
		fast, ok := d.decodeFast(line)
		if !ok {
			t.Errorf("fast path declined a written line: %s", line)
			continue
		}
		ref, err := decodeJSON(line)
		if err != nil || !sameRecord(fast, ref) {
			t.Errorf("%s: fast %+v, reference %+v (%v)", line, fast, ref, err)
		}
	}
}

// TestAppendMatchesMarshal holds the line appender to json.Marshal, the
// format's reference, over generated intents and outcomes: names and details
// with quotes, HTML characters, control bytes and non-ASCII, and integers and
// payload bits at their extremes.
func TestAppendMatchesMarshal(t *testing.T) {
	strs := []string{"", "grid", "field-7", `a"b\c`, "<x>&y", "tab\there", "café", "a\xffb",
		"line\u2028sep", "method=Lorenzo 1-Layer stage=primary", "core: checkpoint-restart required"}
	u64s := []uint64{0, 1, 0x7fff12340000, math.MaxUint64, 0x7ff8000000000001, math.Float64bits(math.Inf(-1))}
	ints := []int{0, -1, 132, math.MaxInt, math.MinInt}
	rng := rand.New(rand.NewSource(1))
	pick := func(n int) int { return rng.Intn(n) }
	for i := 0; i < 5000; i++ {
		var e envelope
		if i%2 == 0 {
			e = envelope{Kind: "intent", Intent: &Intent{ID: u64s[pick(len(u64s))], Alloc: strs[pick(len(strs))],
				Tenant: strs[pick(len(strs))], Addr: u64s[pick(len(u64s))], Offset: ints[pick(len(ints))],
				Detected: math.Float64frombits(u64s[pick(len(u64s))] ^ rng.Uint64()>>uint(pick(64)))}}
		} else {
			e = envelope{Kind: "outcome", Outcome: &Outcome{ID: u64s[pick(len(u64s))], OK: pick(2) == 0,
				Detail: strs[pick(len(strs))], NewBits: u64s[pick(len(u64s))]}}
		}
		want, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.appendJSON([]byte("x")); string(got[1:]) != string(want) {
			t.Fatalf("appendJSON = %s, want %s", got[1:], want)
		}
	}
}

// BenchmarkRecoveryAppend is one journaled recovery's two appends (intent
// and outcome) to an unsynced journal: ns and allocations per pair.
func BenchmarkRecoveryAppend(b *testing.B) {
	r, _, err := OpenRecovery(filepath.Join(b.TempDir(), "j.jsonl"), false)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := r.Begin("t0", "field", 0x7f0000000000, i&0xffff, math.NaN())
		if err != nil {
			b.Fatal(err)
		}
		if err := r.FinishValue(id, true, "method=Lorenzo 1-Layer stage=primary", math.Float64bits(287.5)); err != nil {
			b.Fatal(err)
		}
	}
}

// sameRecord compares records with the float payload by bits (NaN payloads
// are the common case).
func sameRecord(a, b Record) bool {
	if math.Float64bits(a.Intent.Detected) != math.Float64bits(b.Intent.Detected) {
		return false
	}
	a.Intent.Detected, b.Intent.Detected = 0, 0
	return a == b
}

// BenchmarkOpenRecovery is a restart's replay of a closed 4 096-record
// journal, per record: ns/record, and B/record of garbage including the
// per-open read buffer.
func BenchmarkOpenRecovery(b *testing.B) {
	const records = 4096
	path := filepath.Join(b.TempDir(), "storm.jsonl")
	writeStormJournal(b, path, records/2, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := OpenRecovery(path, false)
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * records
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/record")
}
