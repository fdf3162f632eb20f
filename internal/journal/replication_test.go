package journal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSinkSequencesMatchFile proves the replication cursor contract: the
// sequence numbers handed to the Sink are exactly the 1-based line indexes
// of the records in the journal file, so "resume from seq N" on the wire
// and "line N of the file" mean the same thing on both ends.
func TestSinkSequencesMatchFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	r, _, err := OpenRecovery(path, false)
	if err != nil {
		t.Fatal(err)
	}
	type tap struct {
		seq  uint64
		line []byte
	}
	var taps []tap
	r.SetSink(func(seq uint64, line []byte) {
		cp := append([]byte(nil), line...)
		taps = append(taps, tap{seq, cp})
	})
	id, err := r.Begin("acme", "grid", 0x1000, 7, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.FinishValue(id, true, "method=Lorenzo", math.Float64bits(3.25)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if len(taps) != 2 || taps[0].seq != 1 || taps[1].seq != 2 {
		t.Fatalf("sink taps = %+v, want seqs 1,2", taps)
	}
	if got := r.Seq(); got != 2 {
		t.Fatalf("Seq() = %d, want 2", got)
	}
	i := 0
	if err := Records(path, func(seq uint64, line []byte) error {
		if seq != taps[i].seq || !bytes.Equal(line, taps[i].line) {
			t.Fatalf("file record %d (seq %d) does not match sink tap %+v", i, seq, taps[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != 2 {
		t.Fatalf("scanned %d records, want 2", i)
	}
	// The outcome's recovered bits survive the round trip exactly.
	rec, err := DecodeRecord(taps[1].line)
	if err != nil || rec.Kind != KindOutcome {
		t.Fatalf("DecodeRecord: intent/outcome mix-up, err=%v", err)
	}
	if out := rec.Outcome; out.NewBits != math.Float64bits(3.25) {
		t.Fatalf("NewBits = %#x, want %#x", rec.Outcome.NewBits, math.Float64bits(3.25))
	}
}

// TestReplicaTornTailResume is the replication-stream torn-tail regression:
// a partner dies (or its connection does) mid-append of a record received
// off the stream, leaving a torn final line in the replica journal. On
// resume the partner must count only the intact prefix and re-request from
// that sequence number — trusting the torn tail would either skip a record
// (resume too far) or corrupt the replica (concatenated lines).
func TestReplicaTornTailResume(t *testing.T) {
	dir := t.TempDir()

	// The "owner" writes a journal of four records.
	ownerPath := filepath.Join(dir, "owner.jsonl")
	or, _, err := OpenRecovery(ownerPath, false)
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := or.Begin("acme", "grid", 0x1000, 3, 1.5)
	id2, _ := or.Begin("acme", "grid", 0x1008, 4, 2.5)
	if err := or.FinishValue(id1, true, "method=Linear", math.Float64bits(1.25)); err != nil {
		t.Fatal(err)
	}
	if err := or.Finish(id2, false, "exhausted"); err != nil {
		t.Fatal(err)
	}
	if err := or.Close(); err != nil {
		t.Fatal(err)
	}
	var ownerLines [][]byte
	if err := Records(ownerPath, func(seq uint64, line []byte) error {
		ownerLines = append(ownerLines, append([]byte(nil), line...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ownerLines) != 4 {
		t.Fatalf("owner journal has %d records, want 4", len(ownerLines))
	}

	// The "partner" replicated records 1 and 2 cleanly, then died midway
	// through appending record 3: the replica ends in a torn half-line.
	replicaPath := filepath.Join(dir, "replica.jsonl")
	rl, err := OpenLog(replicaPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.AppendLine(ownerLines[0]); err != nil {
		t.Fatal(err)
	}
	if err := rl.AppendLine(ownerLines[1]); err != nil {
		t.Fatal(err)
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(replicaPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := ownerLines[2][:len(ownerLines[2])/2]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: the partner must see exactly 2 intact records — the torn
	// third is as if it never arrived.
	n, err := CountRecords(replicaPath)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("CountRecords over torn replica = %d, want 2 (must not trust the tail)", n)
	}

	// Re-opening the replica as a journal repairs the tail; its sequence
	// counter is the resume cursor. Both intents dangle at this point —
	// their outcomes live in the unreplicated suffix — which is exactly
	// what a promotion at this instant would replay.
	rr, dangling, err := OpenRecovery(replicaPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Seq(); got != 2 {
		t.Fatalf("replica resume seq = %d, want 2", got)
	}
	if len(dangling) != 2 || dangling[0].ID != id1 || dangling[1].ID != id2 {
		t.Fatalf("dangling after torn tail = %+v, want intents %d and %d", dangling, id1, id2)
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}

	// The owner re-sends from seq 3 (records 3 and 4). After appending
	// them, the replica is byte-identical to the owner's journal.
	rl2, err := OpenLog(replicaPath, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range ownerLines[2:] {
		if err := rl2.AppendLine(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := rl2.Close(); err != nil {
		t.Fatal(err)
	}
	ownerBytes, err := os.ReadFile(ownerPath)
	if err != nil {
		t.Fatal(err)
	}
	replicaBytes, err := os.ReadFile(replicaPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ownerBytes, replicaBytes) {
		t.Fatalf("replica after resume differs from owner journal:\nowner:   %q\nreplica: %q", ownerBytes, replicaBytes)
	}
	// And a clean re-open sees all four records, none dangling.
	rr2, dangling2, err := OpenRecovery(replicaPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if rr2.Seq() != 4 || len(dangling2) != 0 {
		t.Fatalf("caught-up replica: seq=%d dangling=%v, want 4 and none", rr2.Seq(), dangling2)
	}
	if err := rr2.Close(); err != nil {
		t.Fatal(err)
	}
}
