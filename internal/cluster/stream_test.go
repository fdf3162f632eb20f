package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/journal"
)

// replicaNode is a bare node "b", the partner of "a", serving only its
// replication listener. It returns the node and the listener's address.
func replicaNode(tb testing.TB) (*Node, string) {
	tb.Helper()
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://127.0.0.1:1", Repl: "127.0.0.1:1"},
		{Name: "b", URL: "http://127.0.0.1:2", Repl: "127.0.0.1:2"},
	}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	n := &Node{
		cfg:      Config{Self: "b", Map: m, DataDir: tb.TempDir()},
		eng:      core.NewEngine(core.Options{Seed: 7}),
		replicas: make(map[string]*replicaState),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go n.acceptLoop(ln)
	tb.Cleanup(func() {
		_ = ln.Close()
		n.closeReplicaConns()
	})
	return n, ln.Addr().String()
}

// replicaPath is where node b keeps its replica of a's journal.
func (n *Node) replicaPath() string { return filepath.Join(n.cfg.DataDir, "replica-a.jsonl") }

// legacyFrame encodes a frame the way every peer did before batching: the
// header through json.Marshal, one frame per buffer.
func legacyFrame(h frameHeader, payload []byte) []byte {
	hdr, _ := json.Marshal(h)
	buf := make([]byte, 8, 8+len(hdr)+len(payload))
	binary.BigEndian.PutUint32(buf[0:], uint32(len(hdr)))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(payload)))
	return append(append(buf, hdr...), payload...)
}

// dialAsOwner opens a replication session to addr as owner "a" and returns
// the connection once the welcome has arrived.
func dialAsOwner(tb testing.TB, addr string) net.Conn {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Write(legacyFrame(frameHeader{Type: frameHello, From: "a"}, nil)); err != nil {
		tb.Fatal(err)
	}
	h, err := readControlFrame(conn)
	if err != nil || h.Type != frameWelcome {
		tb.Fatalf("welcome: %+v, %v", h, err)
	}
	return conn
}

// paddedRecord is journal record seq as the replica sees it: a JSON line of
// about size bytes (a foreign shape, so the replica stores it and does not
// replay it).
func paddedRecord(seq uint64, size int) []byte {
	head := fmt.Sprintf(`{"k":"note","seq":%d,"pad":"`, seq)
	return []byte(head + strings.Repeat("x", max(size-len(head)-2, 0)) + `"}`)
}

// A jrec payload holding a raw newline passes json.Valid but would land in
// the replica file as two lines, which no reopen accepts. The partner must
// refuse the session instead, and its replica file must still open.
func TestReplicaRefusesRecordWithNewline(t *testing.T) {
	n, addr := replicaNode(t)
	conn := dialAsOwner(t, addr)
	if _, err := conn.Write(legacyFrame(frameHeader{Type: frameJrec, Seq: 1}, []byte("{\"a\":\n1}"))); err != nil {
		t.Fatal(err)
	}
	if h, err := readControlFrame(conn); err == nil {
		t.Fatalf("the partner answered %+v to a record with a raw newline; want the session refused", h)
	}
	if _, err := journal.CountRecords(n.replicaPath()); err != nil {
		t.Fatalf("the replica file no longer opens: %v", err)
	}
	st := &replicaState{path: n.replicaPath()}
	if err := st.open(); err != nil {
		t.Fatalf("reopening the replica: %v", err)
	}
	defer st.log.Close()
	if st.count != 0 {
		t.Errorf("replica holds %d records, want 0", st.count)
	}
}

// An older peer writes one frame per Write and waits for each record's ack
// before it sends the next: every record must still be acked, by its own
// seq.
func TestReplicaAcksOneFramePerWritePeer(t *testing.T) {
	_, addr := replicaNode(t)
	conn := dialAsOwner(t, addr)
	for seq := uint64(1); seq <= 50; seq++ {
		if _, err := conn.Write(legacyFrame(frameHeader{Type: frameJrec, Seq: seq}, paddedRecord(seq, 80))); err != nil {
			t.Fatal(err)
		}
		h, err := readControlFrame(conn)
		if err != nil {
			t.Fatalf("record %d: no ack: %v", seq, err)
		}
		if h.Type != frameAck || h.Seq != seq {
			t.Fatalf("record %d acked as %+v", seq, h)
		}
	}
}

// streamRecords writes records 1..count, each about size bytes, in writes
// of perWrite frames, and collects every ack the partner sends until one
// covers count.
func streamRecords(t *testing.T, conn net.Conn, count, size, perWrite int, onAck func(seq uint64)) {
	t.Helper()
	acked := make(chan error, 1)
	go func() {
		r := bufio.NewReader(conn)
		for {
			h, err := readControlFrame(r)
			if err != nil {
				acked <- err
				return
			}
			if h.Type != frameAck {
				acked <- fmt.Errorf("unexpected frame %+v", h)
				return
			}
			onAck(h.Seq)
			if h.Seq == uint64(count) {
				acked <- nil
				return
			}
		}
	}()
	var buf []byte
	for seq := 1; seq <= count; seq++ {
		buf = append(buf, legacyFrame(frameHeader{Type: frameJrec, Seq: uint64(seq)}, paddedRecord(uint64(seq), size))...)
		if seq%perWrite == 0 || seq == count {
			if _, err := conn.Write(buf); err != nil {
				t.Fatal(err)
			}
			buf = buf[:0]
		}
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
}

// An ack says "durably in the replica file": whenever one arrives, the
// file must already hold every record it covers.
func TestReplicaAckNeverAheadOfFile(t *testing.T) {
	n, addr := replicaNode(t)
	conn := dialAsOwner(t, addr)
	var last uint64
	streamRecords(t, conn, 400, 300, 7, func(seq uint64) {
		if seq < last {
			t.Errorf("ack went backwards: %d after %d", seq, last)
		}
		last = seq
		held, err := journal.CountRecords(n.replicaPath())
		if err != nil {
			t.Error(err)
		} else if held < seq {
			t.Errorf("ack of %d arrived while the replica file held %d records", seq, held)
		}
	})
}

// Under a saturated stream the read buffer never drains, and acks must
// still come at least once per batchBytes of records.
func TestReplicaAcksSaturatedStream(t *testing.T) {
	_, addr := replicaNode(t)
	conn := dialAsOwner(t, addr)
	const count, size = 4000, 1000 // ~4 MB in writes of ~1 MB
	var acks []uint64              // appended by streamRecords' reader, read once it has returned
	streamRecords(t, conn, count, size, 1000, func(seq uint64) { acks = append(acks, seq) })
	perBatch := uint64(batchBytes/size + 1) // records that can pass between two acks
	prev := uint64(0)
	for _, seq := range acks {
		if seq-prev > perBatch {
			t.Errorf("%d records (%d bytes) passed between the acks of %d and %d; want at most %d",
				seq-prev, (seq-prev)*size, prev, seq, perBatch)
		}
		prev = seq
	}
	if len(acks) < count*size/batchBytes {
		t.Errorf("%d acks for %d bytes of records; want one per %d bytes at least", len(acks), count*size, batchBytes)
	}
}

// BenchmarkReplicationStream measures the replication stream end to end on
// loopback: journal appends on the owner, the sender's catch-up and live
// tail, the partner's append to a real replica file, and the acks back.
// One op is one recovery (an intent and its outcome, two records).
func BenchmarkReplicationStream(b *testing.B) {
	_, addr := replicaNode(b)
	jpath := filepath.Join(b.TempDir(), "journal.jsonl")
	rec, _, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		b.Fatal(err)
	}
	defer rec.Close()
	s := newSender("a", NodeInfo{Name: "b", Repl: addr}, jpath, func() []snapshotItem { return nil })
	rec.SetSink(s.sink)
	go s.run()
	defer s.Stop()
	for up := false; !up; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		up = s.conn != nil
		s.mu.Unlock()
	}

	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := range b.N {
		id, err := rec.Begin("bench", "grid", 0, i%4096, math.NaN())
		if err != nil {
			b.Fatal(err)
		}
		if err := rec.FinishValue(id, true, "Lorenzo 1-Layer/primary", math.Float64bits(float64(i))); err != nil {
			b.Fatal(err)
		}
	}
	for s.lag() > 0 {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(2*b.N), "allocs/record")
}
