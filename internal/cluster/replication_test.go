package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
)

// fieldBits copies an allocation's cells as IEEE-754 bits under the array
// lock; ok is false while the node does not hold the allocation.
func fieldBits(tn *testNode, tenant, name string) (bits []uint64, ok bool) {
	a, ok := tn.eng.Table().ByTenantName(tenant, name)
	if !ok {
		return nil, false
	}
	tn.eng.WithArrayLock(a.Array, func() {
		for _, v := range a.Array.Data() {
			bits = append(bits, math.Float64bits(v))
		}
	})
	return bits, true
}

// recoverCells injects a DUE at each offset and waits until the owner has
// recovered all of them.
func recoverCells(t *testing.T, c *client.Client, alloc string, offsets []int) {
	t.Helper()
	ctx := context.Background()
	for _, off := range offsets {
		o, b := off, 62
		if _, err := c.Inject(ctx, alloc, httpapi.InjectRequest{Offset: &o, Bit: &b}); err != nil {
			t.Fatalf("inject %d: %v", off, err)
		}
		if res, err := c.Ingest(ctx, httpapi.EventRequest{Alloc: alloc, Offset: &o}); err != nil {
			t.Fatalf("ingest %d: %v", off, err)
		} else if res.Status == httpapi.StatusRejected {
			t.Fatalf("ingest %d rejected: %+v", off, res.Error)
		}
	}
	waitFor(t, 10*time.Second, "recoveries on the owner", func() bool {
		q, err := c.Quarantine(ctx)
		return err == nil && q.Total == 0
	})
}

// A field uploaded while the partner is down must not reach the partner
// after the connect-time snapshot: the snapshot already carries it, and a
// copy captured before the recoveries that followed would roll those cells
// back on the partner. The partner's replica must end bit-identical to the
// owner's field.
func TestReconnectKeepsRecoveredCells(t *testing.T) {
	httpA, replA := listen(t), listen(t)
	// Node b's listeners are open but nobody serves them yet: the partner
	// is down, and a's sender waits for its welcome.
	httpB, replB := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	na := startNode(t, "a", m, httpA, replA, 25*time.Millisecond, time.Hour)
	ta := tenantOwnedBy(m, "a")

	ctx := context.Background()
	ca := client.New(client.Config{BaseURL: na.base, Tenant: ta})
	if _, err := ca.Register(ctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{e2eRows, e2eCols}, DType: "float64",
		Policy: httpapi.PolicyInfo{Method: "Lorenzo 1-Layer"},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := ca.Upload(ctx, "grid", e2eField(0)); err != nil {
		t.Fatalf("upload: %v", err)
	}
	offsets := e2eOffsets()
	recoverCells(t, ca, "grid", offsets[:len(offsets)/2])

	// The partner comes up and catches up.
	nb := startNode(t, "b", m, httpB, replB, 25*time.Millisecond, time.Hour)
	waitFor(t, 10*time.Second, "partner catch-up", func() bool {
		_, ok := fieldBits(nb, ta, "grid")
		return ok && na.node.Status().ReplicationLag == 0
	})
	// One more recovery after catch-up: its journal records travel behind
	// every frame the session queued before them, so once they are
	// acknowledged the partner has applied everything the owner sent.
	recoverCells(t, ca, "grid", offsets[len(offsets)/2:len(offsets)/2+1])
	waitFor(t, 10*time.Second, "replication lag to drain", func() bool {
		return na.node.Status().ReplicationLag == 0
	})

	own, _ := fieldBits(na, ta, "grid")
	rep, ok := fieldBits(nb, ta, "grid")
	if !ok {
		t.Fatal("partner lost the replica")
	}
	diff := 0
	for i := range own {
		if own[i] != rep[i] {
			if diff < 4 {
				t.Errorf("cell %d: partner %x != owner %x", i, rep[i], own[i])
			}
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%d of %d cells differ between owner and partner", diff, len(own))
	}
}

// A hello is the first frame a stranger can send, before the node knows it
// is the partner. One announcing a 200 MiB payload must be refused without
// the node allocating it.
func TestHelloAnnouncingPayloadRefused(t *testing.T) {
	httpA, replA := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	startNode(t, "a", m, httpA, replA, 25*time.Millisecond, time.Hour)

	hdr := []byte(`{"t":"hello","from":"stranger","seq":1}`)
	prefix := make([]byte, 8)
	binary.BigEndian.PutUint32(prefix[0:], uint32(len(hdr)))
	binary.BigEndian.PutUint32(prefix[4:], 200<<20)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	conn, err := net.Dial("tcp", replA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(prefix, hdr...)); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Refused means closed: EOF, or a reset when the header went unread.
	var one [1]byte
	if n, err := conn.Read(one[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("hello with a 200 MiB payload was not refused: read %d bytes, err %v", n, err)
	}
	runtime.ReadMemStats(&ms)
	if grew := ms.TotalAlloc - before; grew > 16<<20 {
		t.Errorf("the node allocated %d MiB for a refused hello", grew>>20)
	}
}

// While no session is up the sender queues only teardowns, and a new
// session starts from an empty outbox: what an earlier session left queued
// is dropped (journal records are re-read from the file, alloc/field state
// travels in the snapshot) except its teardowns, which go out before the
// snapshot together with the ones queued during the outage.
func TestSessionStartsFromSnapshot(t *testing.T) {
	snapshots := 0
	s := newSender("a", NodeInfo{Name: "b"}, "", func() []snapshotItem {
		snapshots++
		return []snapshotItem{{tenant: "t", name: "grid"}}
	})
	unreg := func(name string) outMsg {
		return outMsg{h: frameHeader{Type: frameUnreg, Tenant: "t", Alloc: name}}
	}

	// A session that broke with frames still queued.
	s.live = true
	s.enqueueControl(func() outMsg { return outMsg{h: frameHeader{Type: frameAlloc, Tenant: "t", Alloc: "old"}} })
	s.enqueueTeardown(unreg("x"))
	s.sink(1, []byte(`{}`))
	s.end()

	// The outage: control state is not captured, teardowns wait.
	s.enqueueControl(func() outMsg {
		t.Error("a field was captured while no session was up")
		return outMsg{}
	})
	s.enqueueTeardown(unreg("y"))
	if len(s.outbox) != 3 {
		t.Fatalf("outbox holds %d frames, want the 3 the broken session left", len(s.outbox))
	}

	teardowns, items := s.begin()
	if len(s.outbox) != 0 {
		t.Errorf("outbox holds %d frames after the session began, want 0", len(s.outbox))
	}
	if len(teardowns) != 2 || teardowns[0].h.Alloc != "x" || teardowns[1].h.Alloc != "y" {
		t.Errorf("teardowns = %+v, want x then y", teardowns)
	}
	if snapshots != 1 || len(items) != 1 {
		t.Errorf("snapshot taken %d times with %d items, want once with 1", snapshots, len(items))
	}
	s.sentTeardowns(len(teardowns))
	if len(s.teardowns) != 0 {
		t.Errorf("%d teardowns still pending after delivery", len(s.teardowns))
	}

	// Inside the session control frames flow again.
	s.enqueueControl(func() outMsg { return outMsg{h: frameHeader{Type: frameField, Tenant: "t", Alloc: "grid"}} })
	if len(s.outbox) != 1 {
		t.Errorf("outbox holds %d frames inside a session, want 1", len(s.outbox))
	}
}

// A session that ends because the outbox lost frames still delivers the
// teardown it took from the outbox, whether it holds it in hand or in its
// unwritten batch: no later session can recover it, and a snapshot carries
// no absence. The partner stalls the session on a snapshot field bigger
// than the loopback socket buffers while the outbox fills behind it.
func TestResyncDeliversTakenTeardown(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(s *sender) // runs after the teardown is queued
	}{
		// The outbox overflows behind the teardown: the session sees the
		// flag with the teardown in hand.
		{"overflow", func(s *sender) {
			for s.push(outMsg{h: frameHeader{Type: frameField, Tenant: "t", Alloc: "grid"}}) {
			}
		}},
		// A record past a gap follows the teardown: the session sees the
		// gap with the teardown in its batch.
		{"gap", func(s *sender) {
			s.outbox <- outMsg{h: frameHeader{Type: frameJrec, Seq: 2}, payload: []byte(`{}`)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(jpath, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			ln := listen(t)
			began := make(chan struct{})
			big := make([]byte, 32<<20)
			s := newSender("a", NodeInfo{Name: "b", Repl: ln.Addr().String()}, jpath, func() []snapshotItem {
				close(began)
				return []snapshotItem{{tenant: "t", name: "grid", dims: []int{len(big) / 8}, dtype: "float64", payload: big}}
			})
			go s.run()
			defer s.Stop()
			conn, err := ln.Accept()
			_ = ln.Close() // the session that follows finds no partner
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if h, _, err := readFrame(conn); err != nil || h.Type != frameHello {
				t.Fatalf("hello: %+v, %v", h, err)
			}
			if _, err := conn.Write(legacyFrame(frameHeader{Type: frameWelcome}, nil)); err != nil {
				t.Fatal(err)
			}
			<-began
			s.enqueueTeardown(outMsg{h: frameHeader{Type: frameUnreg, Tenant: "t", Alloc: "gone"}})
			tc.lose(s)
			for {
				h, _, err := readFrame(conn)
				if err != nil {
					t.Fatalf("the session ended without sending the teardown: %v", err)
				}
				if h.Type == frameUnreg && h.Alloc == "gone" {
					return
				}
			}
		})
	}
}

// TestReplicaWorkListMatchesReplay reads one journal file both ways: the
// replica's promotion work-list, rebuilt when the replica file is opened,
// must equal the dangling intents OpenRecovery hands a restarting node —
// the same intents in the same order, torn tail repaired by both.
func TestReplicaWorkListMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	rec, _, err := journal.OpenRecovery(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 12; i++ {
		id, err := rec.Begin("ten", "grid", 0, 10*i, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Close out of order: successes, failures, and an intent left open at
	// each end and in the middle.
	for _, i := range []int{5, 1, 10, 3, 2, 8, 7} {
		if err := rec.FinishValue(ids[i], i%2 == 0, "", math.Float64bits(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.WriteString(`{"k":"outcome","o":{"id":`) // torn: neither side may count it
	_ = f.Close()
	replica := filepath.Join(dir, "replica-a.jsonl")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(replica, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st := &replicaState{owner: "a", path: replica}
	if err := st.open(); err != nil {
		t.Fatal(err)
	}
	defer st.log.Close()
	reopened, dangling, err := journal.OpenRecovery(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()

	work := st.danglingIntents()
	if len(dangling) != 5 || !slices.Equal(work, dangling) {
		t.Errorf("replica work-list %+v\nreplay dangling %+v", work, dangling)
	}
}
