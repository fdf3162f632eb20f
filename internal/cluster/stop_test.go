package cluster

import (
	"context"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
)

// TestGracefulStopWithSilentConnection: a node stopped by cancelling its
// context while a client holds a connection it never sent a request on
// stops at once, through the server's own stop sequence, and its journal
// reopens with the one recovery it ran resolved. net/http alone would wait
// 5 s for the silent connection.
func TestGracefulStopWithSilentConnection(t *testing.T) {
	httpLn, replLn := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "solo", URL: "http://" + httpLn.Addr().String(), Repl: replLn.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := New(core.NewEngine(core.Options{Seed: 7}), Config{
		Self: "solo", Map: m, DataDir: dir, Server: testServerConfig(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- n.Serve(ctx, httpLn, replLn) }()
	tn := &testNode{node: n, base: "http://" + httpLn.Addr().String()}
	tn.waitHealthy(t)

	cctx := context.Background()
	c := client.New(client.Config{BaseURL: tn.base, Tenant: "quiet"})
	if _, err := c.Register(cctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{8, 8}, DType: "float64", Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("register: %v", err)
	}
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i/8) + 2*float64(i%8)
	}
	if err := c.Upload(cctx, "grid", vals); err != nil {
		t.Fatalf("upload: %v", err)
	}
	off := 27
	if _, err := c.Inject(cctx, "grid", httpapi.InjectRequest{Offset: &off}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	res, err := c.Ingest(cctx, httpapi.EventRequest{Alloc: "grid", Offset: &off})
	if err != nil || res.Status != httpapi.StatusAccepted {
		t.Fatalf("ingest = %+v, %v", res, err)
	}
	page, err := c.Outcomes(cctx, 0, "grid", 10)
	if err != nil || len(page.Outcomes) != 1 || !page.Outcomes[0].OK {
		t.Fatalf("outcomes = %+v, %v (want one OK recovery)", page, err)
	}

	// The server accepts connections in order, so once a request on a
	// connection dialled later is answered, the silent one is accepted.
	silent, err := net.Dial("tcp", httpLn.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer silent.Close()
	fresh := &http.Client{Transport: &http.Transport{}}
	resp, err := fresh.Get(tn.base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	fresh.CloseIdleConnections()

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("graceful stop took %v with a silent connection open, want under 1 s", took)
	}

	jpath := filepath.Join(dir, "journal.jsonl")
	if recs, err := journal.CountRecords(jpath); err != nil || recs != 2 {
		t.Errorf("journal holds %d records (err %v), want the recovery's intent and outcome", recs, err)
	}
	jr, dangling, err := journal.OpenRecovery(jpath, false)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer jr.Close()
	if len(dangling) != 0 {
		t.Errorf("%d dangling intents after a graceful stop: %+v", len(dangling), dangling)
	}
}

// TestGracefulStopReplicatesDrainedOutcomes: outcomes the owner journals
// while its graceful stop drains reach the partner before replication
// closes. Five recoveries are parked at their first ladder stage (their
// intents journaled and replicated) when the owner is cancelled; once the
// owner has stopped serving HTTP the recoveries are let go. The partner's
// replica must then hold no dangling intent and the owner's five values bit
// for bit.
func TestGracefulStopReplicatesDrainedOutcomes(t *testing.T) {
	httpA, replA := listen(t), listen(t)
	httpB, replB := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var park atomic.Bool
	release := make(chan struct{})
	na := startNodeEngine(t, "a", m, httpA, replA, 25*time.Millisecond, time.Hour,
		core.Options{Seed: 7, StageHook: func(core.StageEvent) {
			if park.Load() {
				<-release
			}
		}})
	nb := startNode(t, "b", m, httpB, replB, 25*time.Millisecond, time.Hour)
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
	waitFor(t, 10*time.Second, "partner catch-up", func() bool {
		_, ok := fieldBits(nb, ta, "grid")
		return ok && na.node.Status().ReplicationLag == 0
	})

	// Inject takes the whole array lock, which a parked recovery's stripes
	// would block: every cell is corrupted before the first recovery parks.
	offsets := e2eOffsets()[:5]
	for _, off := range offsets {
		o, b := off, 62
		if _, err := ca.Inject(ctx, "grid", httpapi.InjectRequest{Offset: &o, Bit: &b}); err != nil {
			t.Fatalf("inject %d: %v", off, err)
		}
	}
	park.Store(true)
	var wg sync.WaitGroup
	for _, off := range offsets {
		o := off
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := ca.Ingest(ctx, httpapi.EventRequest{Alloc: "grid", Offset: &o}); err != nil || res.Status != httpapi.StatusAccepted {
				t.Errorf("ingest %d = %+v, %v", o, res, err)
			}
		}()
	}
	waitFor(t, 10*time.Second, "five intents on the partner", func() bool {
		return openIntents(nb.node, "a", ta, "grid") == len(offsets)
	})

	na.cancel()
	waitFor(t, 10*time.Second, "the owner to stop serving HTTP", func() bool {
		c, err := net.Dial("tcp", httpA.Addr().String())
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	close(release)
	select {
	case err := <-na.done:
		na.done <- err // for the cleanup
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("owner did not stop")
	}
	wg.Wait()

	if n := openIntents(nb.node, "a", ta, "grid"); n != 0 {
		t.Errorf("partner's replica holds %d dangling intents after the owner's graceful stop, want 0", n)
	}
	own, _ := fieldBits(na, ta, "grid")
	rep, ok := fieldBits(nb, ta, "grid")
	if !ok {
		t.Fatal("partner lost the replica")
	}
	for _, off := range offsets {
		if rep[off] != own[off] {
			t.Errorf("cell %d: partner %x != owner %x", off, rep[off], own[off])
		}
	}
}
