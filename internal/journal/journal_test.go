package journal

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// appendJSON marshals v and appends it as one record line.
func appendJSON(l *Log, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return l.AppendLine(data)
}

// TestLogAppendScanRoundTrip includes a record several times the scan's
// read buffer, which reaches the callback whole, between ordinary ones.
func TestLogAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		N int    `json:"n"`
		S string `json:"s"`
	}
	long := strings.Repeat("0123456789", 20_000)
	want := []rec{{0, "x"}, {1, long}, {2, "x"}, {3, long + "y"}, {4, "x"}}
	for _, r := range want {
		if err := appendJSON(l, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := appendJSON(l, rec{}); err == nil {
		t.Error("append after Close succeeded")
	}

	var got []rec
	if err := Scan(path, func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("scanned %d records, want the 5 appended", len(got))
	}
}

func TestScanMissingFileIsEmpty(t *testing.T) {
	if err := Scan(filepath.Join(t.TempDir(), "nope.jsonl"), func([]byte) error {
		t.Error("callback fired for missing file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestScanTornTail simulates a crash mid-append: the final record is
// partial (no newline / truncated JSON) and must be discarded as if never
// written, while everything before it survives.
func TestScanTornTail(t *testing.T) {
	for _, torn := range []string{
		`{"n":2`,                                // truncated JSON, no newline
		`{"n":2}`,                               // complete JSON but the newline was lost
		"\x00\x00\x00",                          // garbage bytes
		`{"n":` + "\x00\"x",                     // garbage mid-record
		`{"s":"` + strings.Repeat("x", 200_000), // torn past the read buffer
	} {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, []byte("{\"n\":0}\n{\"n\":1}\n"+torn), 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := Scan(path, func([]byte) error { n++; return nil }); err != nil {
			t.Errorf("torn tail %q: scan error %v", torn, err)
		}
		if n != 2 {
			t.Errorf("torn tail %q: scanned %d records, want 2", torn, n)
		}
	}
}

// TestScanMidFileCorruption: damage anywhere but the tail cannot come from
// a crash on an append-only file and must be reported, not skipped.
func TestScanMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte("{\"n\":0}\nGARBAGE\n{\"n\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := Scan(path, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("mid-file corruption: err = %v, want corrupt-record error", err)
	}
}

func TestRecoveryJournalReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery.jsonl")

	r, unfinished, err := OpenRecovery(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(unfinished) != 0 {
		t.Fatalf("fresh journal has %d unfinished intents", len(unfinished))
	}
	id1, err := r.Begin("", "grid", 0x1000, 7, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := r.Begin("", "grid", 0x1008, 8, -1.0)
	if err != nil {
		t.Fatal(err)
	}
	id3, err := r.Begin("", "other", 0x2000, 99, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 || id2 == id3 {
		t.Fatalf("ids not unique: %d %d %d", id1, id2, id3)
	}
	if err := r.Finish(id2, true, "method=Average stage=primary"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: id1 and id3 are dangling, in ID order.
	r2, unfinished, err := OpenRecovery(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if len(unfinished) != 2 {
		t.Fatalf("unfinished = %d, want 2", len(unfinished))
	}
	if unfinished[0].ID != id1 || unfinished[0].Alloc != "grid" || unfinished[0].Offset != 7 || unfinished[0].Detected != 3.5 {
		t.Errorf("unfinished[0] = %+v", unfinished[0])
	}
	if unfinished[1].ID != id3 || unfinished[1].Alloc != "other" {
		t.Errorf("unfinished[1] = %+v", unfinished[1])
	}

	// IDs continue past the highest seen.
	id4, err := r2.Begin("", "grid", 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if id4 <= id3 {
		t.Errorf("id4 = %d, want > %d", id4, id3)
	}

	// Finishing the replayed intents converges the journal.
	if err := r2.Finish(id1, true, ""); err != nil {
		t.Fatal(err)
	}
	if err := r2.Finish(id3, false, "orphaned"); err != nil {
		t.Fatal(err)
	}
	if err := r2.Finish(id4, true, ""); err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	_, unfinished, err = OpenRecovery(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(unfinished) != 0 {
		t.Errorf("after finishing everything, %d unfinished remain: %v", len(unfinished), unfinished)
	}
}

// TestIntentDetectedValueBitExact: the detected value of a DUE is arbitrary
// garbage bits — NaN and Inf must journal and replay bit-exactly.
func TestIntentDetectedValueBitExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery.jsonl")
	r, _, err := OpenRecovery(path, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := math.Float64frombits(0x7ff8dead_beef0001) // NaN with payload
	if _, err := r.Begin("", "grid", 0x1000, 3, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin("", "grid", 0x1008, 4, math.Inf(-1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	_, unfinished, err := OpenRecovery(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(unfinished) != 2 {
		t.Fatalf("unfinished = %d, want 2", len(unfinished))
	}
	if got := math.Float64bits(unfinished[0].Detected); got != 0x7ff8dead_beef0001 {
		t.Errorf("NaN payload round-tripped to %#x", got)
	}
	if !math.IsInf(unfinished[1].Detected, -1) {
		t.Errorf("-Inf round-tripped to %v", unfinished[1].Detected)
	}
}

// TestRecoveryJournalTornIntent: a crash mid-intent-append must surface as
// "no intent at all" — the element was not yet admitted, so nothing is
// replayed and the journal stays usable.
func TestRecoveryJournalTornIntent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "recovery.jsonl")
	r, _, err := OpenRecovery(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Begin("", "grid", 0x1000, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Append half an intent record by hand (simulated torn write).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"k":"intent","i":{"id":2,"alloc":"gri`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, unfinished, err := OpenRecovery(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if len(unfinished) != 1 || unfinished[0].ID != 1 {
		t.Errorf("unfinished = %v, want only the intact intent 1", unfinished)
	}
}

// TestOpenIntents checks the fold a replay and a replica share: an intent
// opens, its outcome closes it and hands it back, an outcome for an intent
// the set never held closes nothing, and the set lists in ID order.
func TestOpenIntents(t *testing.T) {
	var s OpenIntents
	if got := s.List(); len(got) != 0 {
		t.Fatalf("zero set lists %v", got)
	}
	for _, id := range []uint64{7, 2, 9, 4} {
		if _, ok := s.Apply(Record{Kind: KindIntent, Intent: Intent{ID: id, Alloc: "a", Offset: int(id)}}); ok {
			t.Errorf("intent %d reported closing something", id)
		}
	}
	closed, ok := s.Apply(Record{Kind: KindOutcome, Outcome: Outcome{ID: 9, OK: true}})
	if !ok || closed.ID != 9 || closed.Offset != 9 {
		t.Errorf("outcome 9 closed %+v, %v", closed, ok)
	}
	if _, ok := s.Apply(Record{Kind: KindOutcome, Outcome: Outcome{ID: 9}}); ok {
		t.Error("a second outcome for 9 closed it again")
	}
	if _, ok := s.Apply(Record{Kind: KindOutcome, Outcome: Outcome{ID: 100}}); ok {
		t.Error("an outcome for an unknown intent closed something")
	}
	var ids []uint64
	for _, in := range s.List() {
		ids = append(ids, in.ID)
	}
	if want := []uint64{2, 4, 7}; !slices.Equal(ids, want) {
		t.Errorf("open intents %v, want %v", ids, want)
	}
}
