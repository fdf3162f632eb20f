package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spatialdue/internal/golden"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
)

const wireGoldenPath = "testdata/repl_session_golden.txt"

// rawFrame is one frame as it crossed the wire, read without the package's
// own decoder.
type rawFrame struct {
	header  []byte
	payload []byte
}

// readRawFrame reads one length-prefixed frame and appends its exact bytes
// to stream.
func readRawFrame(r io.Reader, stream *bytes.Buffer) (rawFrame, error) {
	var lens [8]byte
	if _, err := io.ReadFull(r, lens[:]); err != nil {
		return rawFrame{}, err
	}
	hl, pl := binary.BigEndian.Uint32(lens[0:]), binary.BigEndian.Uint32(lens[4:])
	body := make([]byte, int(hl)+int(pl))
	if _, err := io.ReadFull(r, body); err != nil {
		return rawFrame{}, err
	}
	stream.Write(lens[:])
	stream.Write(body)
	return rawFrame{header: body[:hl], payload: body[hl:]}, nil
}

func (f rawFrame) typ(t *testing.T) string {
	var h struct {
		Type string `json:"t"`
	}
	if err := json.Unmarshal(f.header, &h); err != nil {
		t.Fatalf("frame header %q: %v", f.header, err)
	}
	return h.Type
}

// dumpFrames renders a captured stream one frame a line: lengths, the
// header, and the payload (inline when it is a journal record, as a digest
// when it is a field), closed by the digest of the whole byte stream.
func dumpFrames(frames []rawFrame, stream []byte) []byte {
	var out bytes.Buffer
	out.WriteString("# owner -> partner byte stream of one scripted replication session\n")
	for _, f := range frames {
		fmt.Fprintf(&out, "hdr=%d payload=%d %s", len(f.header), len(f.payload), f.header)
		switch {
		case len(f.payload) == 0:
		case json.Valid(f.payload):
			fmt.Fprintf(&out, " %s", f.payload)
		default:
			fmt.Fprintf(&out, " sha256=%x", sha256.Sum256(f.payload))
		}
		out.WriteByte('\n')
	}
	fmt.Fprintf(&out, "stream bytes=%d sha256=%x\n", len(stream), sha256.Sum256(stream))
	return out.Bytes()
}

// rampField is n deterministic float64s in the wire encoding.
func rampField(n int, shift float64) []byte {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = shift + math.Sqrt(float64(i))
	}
	return fieldBytes(vals)
}

// TestReplicationWireGolden pins the exact bytes an owner sends its partner
// in one scripted session: the hello, a teardown queued while no session
// was up, the snapshot (a small field and one larger than any batch), the
// journal catch-up from the file, records tailed live, and control frames
// queued after them. How the sender groups frames into writes is free;
// the bytes and their order are not.
func TestReplicationWireGolden(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	rec, _, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	recoveries := 0
	recoverOne := func() {
		recoveries++
		off := 7 * recoveries
		id, err := rec.Begin("ten", "grid", uint64(4096+8*off), off, math.Float64frombits(0x7ff0000000000001))
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.FinishValue(id, true, "Lorenzo 1-Layer/primary", math.Float64bits(1.5+float64(off))); err != nil {
			t.Fatal(err)
		}
	}
	// Three recoveries precede the session: six records for the catch-up.
	for range 3 {
		recoverOne()
	}

	ln := listen(t)
	policy := &policyWire{Method: "Lorenzo 1-Layer"}
	small := rampField(16, 1)
	big := rampField(100*100, 2) // 80 000 bytes, more than any batch
	s := newSender("a", NodeInfo{Name: "b", Repl: ln.Addr().String()}, jpath, func() []snapshotItem {
		return []snapshotItem{
			{tenant: "ten", name: "grid", dims: []int{4, 4}, dtype: "float64", policy: policy, payload: small},
			{tenant: "ten", name: "wide", dims: []int{100, 100}, dtype: "float64", policy: &policyWire{Any: true}, payload: big},
		}
	})
	rec.SetSink(s.sink)
	s.enqueueTeardown(outMsg{h: frameHeader{Type: frameUnreg, Tenant: "ten", Alloc: "gone"}})
	go s.run()
	defer s.Stop()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	var stream bytes.Buffer
	var frames []rawFrame
	readUntil := func(what string, done func(rawFrame) bool) {
		t.Helper()
		for {
			f, err := readRawFrame(conn, &stream)
			if err != nil {
				t.Fatalf("reading up to %s: %v", what, err)
			}
			frames = append(frames, f)
			if done(f) {
				return
			}
		}
	}
	readUntil("hello", func(rawFrame) bool { return true })
	welcome := []byte(`{"t":"welcome"}`)
	prefix := make([]byte, 8)
	binary.BigEndian.PutUint32(prefix, uint32(len(welcome)))
	if _, err := conn.Write(append(prefix, welcome...)); err != nil {
		t.Fatal(err)
	}
	jrecs := 0
	countTo := func(n int) func(rawFrame) bool {
		return func(f rawFrame) bool {
			if f.typ(t) == frameJrec {
				jrecs++
			}
			return jrecs == n
		}
	}
	readUntil("the catch-up", countTo(6))
	// Two more recoveries: tailed live (or picked up by a scan still at
	// the file's end; the stream is the same either way).
	recoverOne()
	recoverOne()
	readUntil("the live tail", countTo(10))
	// Control frames queued after every record was on the wire: a field
	// update of each size and a teardown, in that order.
	s.enqueueControl(func() outMsg {
		return outMsg{h: frameHeader{Type: frameField, Tenant: "ten", Alloc: "grid"}, payload: rampField(16, 3)}
	})
	s.enqueueControl(func() outMsg {
		return outMsg{h: frameHeader{Type: frameField, Tenant: "ten", Alloc: "wide"}, payload: big}
	})
	s.enqueueTeardown(outMsg{h: frameHeader{Type: frameUnreg, Tenant: "ten", Alloc: "grid"}})
	readUntil("the trailing teardown", func(f rawFrame) bool { return f.typ(t) == frameUnreg && jrecs == 10 })

	golden.Compare(t, wireGoldenPath, dumpFrames(frames, stream.Bytes()))
}

// TestPairStormReplicaIdentical runs a two-client DUE storm on one tenant,
// one client entering at the owner and one at the other node (forwarded).
// Once it settles the partner's replica journal must be byte-identical to
// the owner's journal, its copy of the field bit-identical, and the lag 0.
func TestPairStormReplicaIdentical(t *testing.T) {
	httpA, replA, httpB, replB := listen(t), listen(t), listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	na := startNode(t, "a", m, httpA, replA, 25*time.Millisecond, time.Hour)
	nb := startNode(t, "b", m, httpB, replB, 25*time.Millisecond, time.Hour)
	ta := tenantOwnedBy(m, "a")

	ctx := context.Background()
	clients := []*client.Client{
		client.New(client.Config{BaseURL: na.base, Tenant: ta}),
		client.New(client.Config{BaseURL: nb.base, Tenant: ta}),
	}
	if _, err := clients[0].Register(ctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{e2eRows, e2eCols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Method: "Lorenzo 1-Layer"},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := clients[1].Upload(ctx, "grid", e2eField(0)); err != nil {
		t.Fatalf("upload: %v", err)
	}

	const rounds = 6
	offsets := e2eOffsets()
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				for i := ci; i < len(offsets); i += len(clients) {
					o, b := offsets[i], 62-round
					if _, err := c.Inject(ctx, "grid", httpapi.InjectRequest{Offset: &o, Bit: &b}); err != nil {
						t.Errorf("client %d inject %d: %v", ci, o, err)
						return
					}
					if res, err := c.Ingest(ctx, httpapi.EventRequest{Alloc: "grid", Offset: &o}); err != nil || res.Status == httpapi.StatusRejected {
						t.Errorf("client %d ingest %d: %v %+v", ci, o, err, res)
						return
					}
				}
				// Settle before the next round re-injects the same cells.
				deadline := time.Now().Add(10 * time.Second)
				for {
					q, err := c.Quarantine(ctx)
					if err == nil && q.Total == 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("client %d: round %d did not settle", ci, round)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitFor(t, 10*time.Second, "replication lag to drain", func() bool {
		return na.node.Status().ReplicationLag == 0
	})

	own, err := os.ReadFile(na.node.cfg.Server.Service.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	nb.node.mu.Lock()
	st := nb.node.replicas["a"]
	nb.node.mu.Unlock()
	if st == nil {
		t.Fatal("the partner holds no replica of a")
	}
	rep, err := os.ReadFile(st.path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(own, []byte("\n")); n < 2*rounds*len(offsets) {
		t.Fatalf("owner journal holds %d records, want at least %d", n, 2*rounds*len(offsets))
	}
	if !bytes.Equal(own, rep) {
		t.Fatalf("replica journal (%d bytes) differs from the owner's (%d bytes)", len(rep), len(own))
	}

	ownBits, _ := fieldBits(na, ta, "grid")
	repBits, ok := fieldBits(nb, ta, "grid")
	if !ok {
		t.Fatal("partner lost the replica field")
	}
	for i := range ownBits {
		if ownBits[i] != repBits[i] {
			t.Fatalf("cell %d: partner %x != owner %x", i, repBits[i], ownBits[i])
		}
	}
}
