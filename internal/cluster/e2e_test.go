package cluster

import (
	"context"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
)

const (
	e2eRows, e2eCols = 24, 24
)

// e2eField is a smooth deterministic field; spatial prediction reconstructs
// its cells accurately from neighbors.
func e2eField(shift float64) []float64 {
	vals := make([]float64, e2eRows*e2eCols)
	for i := 0; i < e2eRows; i++ {
		for j := 0; j < e2eCols; j++ {
			vals[i*e2eCols+j] = shift + 100 +
				10*math.Sin(2*math.Pi*float64(i)/e2eRows)*
					math.Cos(2*math.Pi*float64(j)/e2eCols)
		}
	}
	return vals
}

// e2eOffsets are the DUE sites: far enough apart that no recovery's stencil
// overlaps another site, so each reconstruction is independent of ordering
// — the property that makes cross-node bit-identity checkable.
func e2eOffsets() []int {
	var offs []int
	for _, r := range []int{3, 9, 15, 21} {
		for _, c := range []int{3, 9, 15, 21} {
			offs = append(offs, r*e2eCols+c)
		}
	}
	return offs
}

// referenceBits runs the whole storm against a plain single node — no
// cluster, no kill — and returns the recovered IEEE-754 bits per offset.
// The distributed run must reproduce these exactly.
func referenceBits(t *testing.T, tenant string, field []float64, offsets []int, policy httpapi.PolicyInfo) map[int]uint64 {
	t.Helper()
	eng := core.NewEngine(core.Options{Seed: 7})
	srv, err := httpapi.NewServer(eng, testServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx, ln) }()
	defer func() {
		cancel()
		<-done
	}()

	base := "http://" + ln.Addr().String()
	waitFor(t, 5*time.Second, "reference server healthy", func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	c := client.New(client.Config{BaseURL: base, Tenant: tenant})
	rctx := context.Background()
	if _, err := c.Register(rctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{e2eRows, e2eCols}, DType: "float64", Policy: policy,
	}); err != nil {
		t.Fatalf("reference register: %v", err)
	}
	if err := c.Upload(rctx, "grid", field); err != nil {
		t.Fatalf("reference upload: %v", err)
	}
	for _, off := range offsets {
		o, b := off, 62
		if _, err := c.Inject(rctx, "grid", httpapi.InjectRequest{Offset: &o, Bit: &b}); err != nil {
			t.Fatalf("reference inject %d: %v", off, err)
		}
		if _, err := c.Ingest(rctx, httpapi.EventRequest{Alloc: "grid", Offset: &o}); err != nil {
			t.Fatalf("reference ingest %d: %v", off, err)
		}
	}
	waitFor(t, 10*time.Second, "reference recoveries to finish", func() bool {
		q, err := c.Quarantine(rctx)
		return err == nil && q.Total == 0
	})
	bits := make(map[int]uint64, len(offsets))
	for _, off := range offsets {
		el, err := c.Element(rctx, "grid", off)
		if err != nil {
			t.Fatalf("reference element %d: %v", off, err)
		}
		bits[off] = el.ValueBits
	}
	return bits
}

// TestKillOwnerMidStormBitIdentical is the cluster's survival proof: a
// two-node cluster takes a DUE storm on the shard owner, the owner is
// killed abruptly (queued work dropped, nothing drained), the partner
// promotes itself and replays the replicated journal, the client re-reports
// its outstanding DUEs against the promoted partner, and every recovery
// lands — with results bit-identical to an undisturbed single-node run and
// the other tenant's shard untouched.
func TestKillOwnerMidStormBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster e2e")
	}
	policy := httpapi.PolicyInfo{Method: "Lorenzo 1-Layer"}
	fieldA, fieldB := e2eField(0), e2eField(500)
	offsets := e2eOffsets()
	batch1, batch2 := offsets[:len(offsets)/2], offsets[len(offsets)/2:]

	httpA, replA := listen(t), listen(t)
	httpB, replB := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Once phase 2 starts, node a's recoveries park at their first ladder
	// stage until the hook is released, so the kill below lands with
	// phase-2 work genuinely in flight: intents journaled and replicated,
	// outcomes not yet produced — the dangling state the partner must
	// replay. The hook changes pacing only, never values.
	var park atomic.Bool
	release := make(chan struct{})
	na := startNodeEngine(t, "a", m, httpA, replA, 25*time.Millisecond, 150*time.Millisecond,
		core.Options{Seed: 7, StageHook: func(core.StageEvent) {
			if park.Load() {
				<-release
			}
		}})
	nb := startNode(t, "b", m, httpB, replB, 25*time.Millisecond, 150*time.Millisecond)
	ta, tb := tenantOwnedBy(m, "a"), tenantOwnedBy(m, "b")

	refBits := referenceBits(t, ta, fieldA, offsets, policy)

	ctx := context.Background()
	// Tenant a's client points at node b, tenant b's at node a: every call
	// below crosses the shard-forwarding path before the kill.
	ca := client.New(client.Config{BaseURL: nb.base, Tenant: ta})
	cb := client.New(client.Config{BaseURL: na.base, Tenant: tb})

	if _, err := ca.Register(ctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{e2eRows, e2eCols}, DType: "float64", Policy: policy,
	}); err != nil {
		t.Fatalf("register grid: %v", err)
	}
	if err := ca.Upload(ctx, "grid", fieldA); err != nil {
		t.Fatalf("upload grid: %v", err)
	}
	if _, err := cb.Register(ctx, httpapi.RegisterRequest{
		Name: "bgrid", Dims: []int{e2eRows, e2eCols}, DType: "float64", Policy: policy,
	}); err != nil {
		t.Fatalf("register bgrid: %v", err)
	}
	if err := cb.Upload(ctx, "bgrid", fieldB); err != nil {
		t.Fatalf("upload bgrid: %v", err)
	}

	// Registration must have landed on the owners, not the entry nodes.
	if _, ok := na.eng.Table().ByTenantName(ta, "grid"); !ok {
		t.Fatal("tenant a's grid did not land on node a")
	}
	if _, ok := nb.eng.Table().ByTenantName(tb, "bgrid"); !ok {
		t.Fatal("tenant b's bgrid did not land on node b")
	}

	// Wait until a's replica of grid reached b with the uploaded contents.
	waitFor(t, 5*time.Second, "field replication to partner", func() bool {
		a, ok := nb.eng.Table().ByTenantName(ta, "grid")
		if !ok {
			return false
		}
		match := true
		nb.eng.WithArrayLock(a.Array, func() {
			data := a.Array.Data()
			for i, v := range fieldA {
				if data[i] != v {
					match = false
					return
				}
			}
		})
		return match
	})

	// Storm phase 1: these DUEs fully recover on the owner, and their
	// journal outcomes replicate before the kill.
	for _, off := range batch1 {
		o, b := off, 62
		if _, err := ca.Inject(ctx, "grid", httpapi.InjectRequest{Offset: &o, Bit: &b}); err != nil {
			t.Fatalf("inject %d: %v", off, err)
		}
		if res, err := ca.Ingest(ctx, httpapi.EventRequest{Alloc: "grid", Offset: &o}); err != nil {
			t.Fatalf("ingest %d: %v", off, err)
		} else if res.Status == httpapi.StatusRejected {
			t.Fatalf("ingest %d rejected: %+v", off, res.Error)
		}
	}
	waitFor(t, 10*time.Second, "phase-1 recoveries on the owner", func() bool {
		q, err := ca.Quarantine(ctx)
		return err == nil && q.Total == 0
	})
	waitFor(t, 10*time.Second, "replication lag to drain", func() bool {
		return na.node.Status().ReplicationLag == 0
	})

	// Storm phase 2: report the remaining DUEs and kill the owner with the
	// storm in flight. No drain, no flush — whatever the partner has is all
	// that survives. A single ingest returns only once its recovery does,
	// and the parked hook holds those, so the ingests go out from
	// goroutines; the node dies under them.
	for _, off := range batch2 {
		o, b := off, 62
		if _, err := ca.Inject(ctx, "grid", httpapi.InjectRequest{Offset: &o, Bit: &b}); err != nil {
			t.Fatalf("inject %d: %v", off, err)
		}
	}
	park.Store(true)
	var ingests sync.WaitGroup
	for _, off := range batch2 {
		o := off
		ingests.Add(1)
		go func() {
			defer ingests.Done()
			_, _ = ca.Ingest(ctx, httpapi.EventRequest{Alloc: "grid", Offset: &o})
		}()
	}
	waitFor(t, 10*time.Second, "an open intent for grid on the partner", func() bool {
		return openIntents(nb.node, "a", ta, "grid") > 0
	})
	na.node.Kill()
	close(release)
	ingests.Wait()

	waitFor(t, 10*time.Second, "partner promotion", func() bool {
		cs := nb.node.Status()
		return len(cs.PromotedFor) == 1 && cs.PromotedFor[0] == "a"
	})

	// Client-side close-out, as dueload's multi-node mode does it: every DUE
	// the client ever reported is re-reported against the promoted partner.
	// Events the dead owner had latched but never finished are thereby
	// redelivered; already-recovered cells just re-recover to the same bits.
	for _, off := range offsets {
		o := off
		waitFor(t, 10*time.Second, "re-ingest after failover", func() bool {
			res, err := ca.Ingest(ctx, httpapi.EventRequest{Alloc: "grid", Offset: &o})
			return err == nil && res.Status != httpapi.StatusRejected
		})
	}
	waitFor(t, 15*time.Second, "promoted-node recoveries to finish", func() bool {
		q, err := ca.Quarantine(ctx)
		return err == nil && q.Total == 0
	})

	// The promotion must have actually replayed replicated intents — the
	// parked stage hook guarantees the kill caught phase-2 work in flight.
	outs, err := ca.Outcomes(ctx, 0, "grid", 200)
	if err != nil {
		t.Fatalf("outcomes: %v", err)
	}
	replayed := 0
	for _, o := range outs.Outcomes {
		if o.Replayed {
			replayed++
		}
	}
	if replayed == 0 {
		t.Error("promoted node reported no replayed recoveries; kill did not catch work in flight")
	}

	// Zero lost recoveries, bit-identical to the single-node run.
	for _, off := range offsets {
		el, err := ca.Element(ctx, "grid", off)
		if err != nil {
			t.Fatalf("element %d: %v", off, err)
		}
		if el.Quarantined {
			t.Errorf("offset %d still quarantined after failover", off)
		}
		if el.ValueBits != refBits[off] {
			t.Errorf("offset %d: recovered bits %x != single-node reference %x",
				off, el.ValueBits, refBits[off])
		}
	}
	// Untouched cells must still carry the uploaded bits.
	for _, off := range []int{0, 7*e2eCols + 11, e2eRows*e2eCols - 1} {
		el, err := ca.Element(ctx, "grid", off)
		if err != nil {
			t.Fatalf("clean element %d: %v", off, err)
		}
		if el.ValueBits != math.Float64bits(fieldA[off]) {
			t.Errorf("clean offset %d changed: %x != %x", off, el.ValueBits, math.Float64bits(fieldA[off]))
		}
	}

	// Cross-tenant isolation on the survivor: tenant b sees exactly its own
	// allocation, bit-exact, and cannot address tenant a's shard.
	cb2 := client.New(client.Config{BaseURL: nb.base, Tenant: tb})
	lst, err := cb2.Allocations(ctx)
	if err != nil {
		t.Fatalf("tenant b allocations: %v", err)
	}
	if len(lst.Allocations) != 1 || lst.Allocations[0].Name != "bgrid" {
		t.Fatalf("tenant b sees %+v, want exactly bgrid", lst.Allocations)
	}
	if _, err := cb2.Element(ctx, "grid", 0); err == nil {
		t.Error("tenant b can address tenant a's allocation on the promoted node")
	}
	down, err := cb2.Download(ctx, "bgrid")
	if err != nil {
		t.Fatalf("tenant b download: %v", err)
	}
	for i, v := range fieldB {
		if math.Float64bits(down[i]) != math.Float64bits(v) {
			t.Fatalf("tenant b data disturbed at %d: %v != %v", i, down[i], v)
		}
	}

	// The survivor serves in degraded mode: ready=false, healthz green.
	resp, err := http.Get(nb.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("promoted readyz = %d, want 503", resp.StatusCode)
	}
}

// openIntents counts the intents for tenant/alloc that n's replica of
// owner's journal holds open.
func openIntents(n *Node, owner, tenant, alloc string) int {
	n.mu.Lock()
	st := n.replicas[owner]
	n.mu.Unlock()
	if st == nil {
		return 0
	}
	count := 0
	for _, in := range st.danglingIntents() {
		if in.Tenant == tenant && in.Alloc == alloc {
			count++
		}
	}
	return count
}

// TestRejoinCatchUp: after a kill and promotion, a fresh node at the dead
// owner's address comes back as a standby — it forwards its own tenants to
// the promoted partner instead of serving stale state.
func TestRejoinStandby(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster e2e")
	}
	httpA, replA := listen(t), listen(t)
	httpB, replB := listen(t), listen(t)
	m, err := NewMap([]NodeInfo{
		{Name: "a", URL: "http://" + httpA.Addr().String(), Repl: replA.Addr().String()},
		{Name: "b", URL: "http://" + httpB.Addr().String(), Repl: replB.Addr().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	na := startNode(t, "a", m, httpA, replA, 25*time.Millisecond, 150*time.Millisecond)
	nb := startNode(t, "b", m, httpB, replB, 25*time.Millisecond, 150*time.Millisecond)
	ta := tenantOwnedBy(m, "a")

	ctx := context.Background()
	ca := client.New(client.Config{BaseURL: na.base, Tenant: ta})
	if _, err := ca.Register(ctx, httpapi.RegisterRequest{
		Name: "grid", Dims: []int{8, 8}, DType: "float64",
		Policy: httpapi.PolicyInfo{Any: true},
	}); err != nil {
		t.Fatal(err)
	}

	na.node.Kill()
	waitFor(t, 10*time.Second, "promotion", func() bool {
		cs := nb.node.Status()
		return len(cs.PromotedFor) == 1 && cs.PromotedFor[0] == "a"
	})

	// Rebind the dead node's HTTP address for the rejoin. The original
	// listener is closed by Kill; the port stays ours to re-listen on.
	var httpA2, replA2 net.Listener
	waitFor(t, 5*time.Second, "rebinding the dead node's ports", func() bool {
		var herr, rerr error
		if httpA2 == nil {
			httpA2, herr = net.Listen("tcp", httpA.Addr().String())
		}
		if replA2 == nil {
			replA2, rerr = net.Listen("tcp", replA.Addr().String())
		}
		return herr == nil && rerr == nil
	})
	na2 := startNode(t, "a", m, httpA2, replA2, 25*time.Millisecond, 150*time.Millisecond)

	cs := na2.node.Status()
	if !cs.Standby || !cs.Degraded {
		t.Errorf("rejoined node status = %+v, want Standby+Degraded", cs)
	}
	// Its own tenants keep flowing to the promoted partner.
	if url, local := na2.node.Route(ta); local || url != nb.base {
		t.Errorf("rejoined Route(%s) = (%q, %v), want forward to %q", ta, url, local, nb.base)
	}
	resp, err := http.Get(na2.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("standby readyz = %d, want 503", resp.StatusCode)
	}
}
