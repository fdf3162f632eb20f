package cluster

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/journal"
	"spatialdue/internal/service"
)

// testNode is one in-process cluster member under test.
type testNode struct {
	node *Node
	eng  *core.Engine
	base string // HTTP base URL
	repl string // replication listener address

	cancel context.CancelFunc
	done   chan error
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// deadAddr reserves a loopback port and immediately releases it: an address
// that refuses connections, standing in for a dead node.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln := listen(t)
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

func testServerConfig() httpapi.ServerConfig {
	return httpapi.ServerConfig{
		EnableInject: true,
		Service:      service.Config{Workers: 2, QueueDepth: 64, Seed: 7},
	}
}

// startNode builds and serves a node on the given listeners, waiting for
// /healthz before returning.
func startNode(t *testing.T, self string, m *Map, httpLn, replLn net.Listener, hb, budget time.Duration) *testNode {
	return startNodeEngine(t, self, m, httpLn, replLn, hb, budget, core.Options{Seed: 7})
}

func startNodeEngine(t *testing.T, self string, m *Map, httpLn, replLn net.Listener, hb, budget time.Duration, opts core.Options) *testNode {
	t.Helper()
	tn := serveNode(t, self, m, httpLn, replLn, hb, budget, opts)
	tn.waitHealthy(t)
	return tn
}

// serveNode builds a node and starts Serve on the given listeners without
// waiting for it to come up; the test's cleanup stops it.
func serveNode(t *testing.T, self string, m *Map, httpLn, replLn net.Listener, hb, budget time.Duration, opts core.Options) *testNode {
	t.Helper()
	eng := core.NewEngine(opts)
	n, err := New(eng, Config{
		Self: self, Map: m, DataDir: t.TempDir(),
		Heartbeat: hb, HeartbeatBudget: budget,
		Server: testServerConfig(),
	})
	if err != nil {
		t.Fatalf("New(%s): %v", self, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.Serve(ctx, httpLn, replLn) }()
	tn := &testNode{
		node: n, eng: eng,
		base:   "http://" + httpLn.Addr().String(),
		repl:   replLn.Addr().String(),
		cancel: cancel, done: done,
	}
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("node %s did not shut down", self)
		}
	})
	return tn
}

// waitHealthy waits until the node's /healthz answers 200.
func (tn *testNode) waitHealthy(t *testing.T) {
	t.Helper()
	waitFor(t, 5*time.Second, "node "+tn.node.cfg.Self+" healthy", func() bool {
		resp, err := http.Get(tn.base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// tenantOwnedBy finds a tenant name the map assigns to the given node.
func tenantOwnedBy(m *Map, node string) string {
	for i := 0; ; i++ {
		tn := fmt.Sprintf("ten-%s-%d", node, i)
		if m.Owner(tn).Name == node {
			return tn
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A request for a non-owned tenant must come back as a 307 pointing at the
// owner, with the hop counter advanced; a request that has already bounced
// MaxForwardHops times must be cut with 508 forward_loop.
func TestForwardRedirectAndLoopGuard(t *testing.T) {
	httpA, replA := listen(t), listen(t)
	httpB, replB := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	na := startNode(t, "a", m, httpA, replA, 50*time.Millisecond, time.Hour)
	nb := startNode(t, "b", m, httpB, replB, 50*time.Millisecond, time.Hour)

	tb := tenantOwnedBy(m, "b")
	raw := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	req, _ := http.NewRequest(http.MethodGet, na.base+"/v1/allocations", nil)
	req.Header.Set(httpapi.TenantHeader, tb)
	resp, err := raw.Do(req)
	if err != nil {
		t.Fatalf("forwarded GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status = %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != nb.base+"/v1/allocations" {
		t.Errorf("Location = %q, want %q", loc, nb.base+"/v1/allocations")
	}
	if hops := resp.Header.Get(httpapi.ForwardHopsHeader); hops != "1" {
		t.Errorf("hops header = %q, want 1", hops)
	}

	// Exhausted hop budget: the node cuts the loop instead of bouncing on.
	req, _ = http.NewRequest(http.MethodGet, na.base+"/v1/allocations", nil)
	req.Header.Set(httpapi.TenantHeader, tb)
	req.Header.Set(httpapi.ForwardHopsHeader, "3")
	resp, err = raw.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Errorf("looped request status = %d, want 508", resp.StatusCode)
	}

	// The SDK follows the redirect transparently: a tenant-b client pointed
	// at node a still lands on node a's... partner node b, and round-trips.
	ctx := context.Background()
	cb := client.New(client.Config{BaseURL: na.base, Tenant: tb})
	if _, err := cb.Register(ctx, httpapi.RegisterRequest{
		Name: "fwd", Dims: []int{4, 4}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatalf("forwarded register: %v", err)
	}
	if _, ok := nb.eng.Table().ByTenantName(tb, "fwd"); !ok {
		t.Fatal("forwarded registration did not land on the owner")
	}
	lst, err := cb.Allocations(ctx)
	if err != nil || len(lst.Allocations) != 1 || lst.Allocations[0].Name != "fwd" {
		t.Fatalf("forwarded list = %+v, %v", lst, err)
	}
}

// A partner must promote itself over a dead owner and replay the replicated
// journal's dangling intents through the full recovery pipeline. The owner
// here is simulated at the protocol level so the dangling intent is
// deterministic: it registers state, streams one intent record, and dies
// without ever sending the outcome.
func TestPromotionReplaysDanglingIntent(t *testing.T) {
	const rows, cols = 16, 16
	off := 5*cols + 5

	httpB, replB := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + deadAddr(t), Repl: deadAddr(t)},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb := startNode(t, "b", m, httpB, replB, 30*time.Millisecond, 150*time.Millisecond)
	ta := tenantOwnedBy(m, "a")

	// The dead owner's journal: one intent, no outcome.
	jr, _, err := journal.OpenRecovery(t.TempDir()+"/owner.jsonl", false)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	jr.SetSink(func(seq uint64, line []byte) {
		lines = append(lines, append([]byte(nil), line...))
	})
	if _, err := jr.Begin(ta, "grid", 0, off, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	_ = jr.Close()

	vals := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			vals[i*cols+j] = 2*float64(i) + 3*float64(j)
		}
	}

	// Speak the replication protocol as owner "a".
	conn, err := net.Dial("tcp", replB.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHeader{Type: frameHello, From: "a", Seq: 1}, nil); err != nil {
		t.Fatal(err)
	}
	h, _, err := readFrame(conn)
	if err != nil || h.Type != frameWelcome || h.Resume != 0 {
		t.Fatalf("welcome = %+v, err %v (want resume 0)", h, err)
	}
	if err := writeFrame(conn, frameHeader{
		Type: frameAlloc, Tenant: ta, Alloc: "grid", Dims: []int{rows, cols},
		DType: "float64", Policy: &policyWire{Method: "Lorenzo 1-Layer"},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHeader{Type: frameField, Tenant: ta, Alloc: "grid"}, fieldBytes(vals)); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHeader{Type: frameJrec, Seq: 1}, lines[0]); err != nil {
		t.Fatal(err)
	}
	h, _, err = readFrame(conn)
	if err != nil || h.Type != frameAck || h.Seq != 1 {
		t.Fatalf("ack = %+v, err %v", h, err)
	}
	_ = conn.Close() // the owner dies here; its /healthz is already dark

	waitFor(t, 5*time.Second, "promotion over a", func() bool {
		cs := nb.node.Status()
		return len(cs.PromotedFor) == 1 && cs.PromotedFor[0] == "a"
	})

	// The replayed recovery must run to completion on the promoted node.
	ctx := context.Background()
	ca := client.New(client.Config{BaseURL: nb.base, Tenant: ta})
	waitFor(t, 5*time.Second, "replayed recovery to clear quarantine", func() bool {
		el, err := ca.Element(ctx, "grid", off)
		return err == nil && !el.Quarantined
	})
	outs, err := ca.Outcomes(ctx, 0, "grid", 100)
	if err != nil {
		t.Fatalf("outcomes: %v", err)
	}
	found := false
	for _, o := range outs.Outcomes {
		if o.Offset == off && o.Replayed && o.OK {
			found = true
		}
	}
	if !found {
		t.Errorf("no replayed OK outcome for offset %d in %+v", off, outs.Outcomes)
	}

	// Degraded mode: the promoted node must fail readiness so orchestrators
	// see the cluster needs attention, while /healthz stays green.
	resp, err := http.Get(nb.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("promoted readyz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(nb.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("promoted healthz = %d, want 200", resp.StatusCode)
	}
}

// A node whose partner link is down past the heartbeat budget must report
// replication lag on /metrics and degrade /readyz, without touching its
// serving path.
func TestPartnerDownDegradesReadyz(t *testing.T) {
	httpA, replA := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + deadAddr(t), Repl: deadAddr(t)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	na := startNode(t, "a", m, httpA, replA, 30*time.Millisecond, 100*time.Millisecond)

	waitFor(t, 5*time.Second, "partner-down readyz degradation", func() bool {
		resp, err := http.Get(na.base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	cs := na.node.Status()
	if !cs.PartnerDown || !cs.Degraded {
		t.Errorf("status = %+v, want PartnerDown and Degraded", cs)
	}
}
