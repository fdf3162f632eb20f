package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// Config wires one cluster node.
type Config struct {
	// Self is this node's name in the map.
	Self string
	// Map is the static membership map (identical on every node).
	Map *Map
	// DataDir holds the node's own journal and its partner-replica files.
	DataDir string
	// Heartbeat is the partner-liveness probe interval (default 250ms).
	Heartbeat time.Duration
	// HeartbeatBudget is how long an owner may stay unreachable before its
	// partner promotes itself (default 2s). Promotion is sticky: handing the
	// shard back is an operator action (restart with the owner healthy).
	HeartbeatBudget time.Duration
	// Server configures the embedded HTTP API. The service's JournalPath
	// defaults to DataDir/journal.jsonl; JournalSink and the server's
	// Cluster hook are overwritten by New.
	Server httpapi.ServerConfig
}

// Node is one member of a recovery cluster: the HTTP API plus the
// replication sender (its shards → partner) and receiver (partners' shards
// → local replica), the heartbeat probers, and the promotion state machine.
// It implements httpapi.Cluster.
type Node struct {
	cfg        Config
	eng        *core.Engine
	srv        *httpapi.Server
	partner    NodeInfo
	hasPartner bool
	sender     *sender
	senderUp   atomic.Bool

	replLn net.Listener // set by Serve

	mu           sync.Mutex
	replicas     map[string]*replicaState
	promoted     map[string]bool
	standby      bool
	startupProbe string // how the start-up probe ended; see httpapi.ClusterStatus
	killed       bool

	// ready is closed once the start-up probe has decided this node's role;
	// until then ServeHTTP holds every route but the cluster status.
	ready    chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
}

// New builds a node: it validates the map entry, installs the replication
// sink into the service journal, and hooks the node into the HTTP layer as
// its Cluster.
func New(eng *core.Engine, cfg Config) (*Node, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("cluster: nil membership map")
	}
	if _, ok := cfg.Map.Node(cfg.Self); !ok {
		return nil, fmt.Errorf("cluster: node %q not in map [%s]", cfg.Self, cfg.Map)
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("cluster: DataDir is required (journal + replica files)")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: create data dir: %w", err)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 250 * time.Millisecond
	}
	if cfg.HeartbeatBudget <= 0 {
		cfg.HeartbeatBudget = 2 * time.Second
	}
	if cfg.Server.Service.JournalPath == "" {
		cfg.Server.Service.JournalPath = filepath.Join(cfg.DataDir, "journal.jsonl")
	}

	n := &Node{
		cfg:      cfg,
		eng:      eng,
		replicas: make(map[string]*replicaState),
		promoted: make(map[string]bool),
		ready:    make(chan struct{}),
		stop:     make(chan struct{}),
	}
	n.partner, n.hasPartner = cfg.Map.PartnerOf(cfg.Self)
	if n.hasPartner {
		n.sender = newSender(cfg.Self, n.partner, cfg.Server.Service.JournalPath, n.snapshot)
		n.cfg.Server.Service.JournalSink = n.sender.sink
	}
	n.cfg.Server.Cluster = n

	srv, err := httpapi.NewServer(eng, n.cfg.Server)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	return n, nil
}

// Server exposes the embedded HTTP API (tests drive it directly).
func (n *Node) Server() *httpapi.Server { return n.srv }

// Serve runs the node on the two listeners until ctx is cancelled or the
// node is killed. The HTTP side is the embedded server's Run, serving the
// node's start-up gate in front of the API.
//
// Start-up order: serve HTTP (status only) and accept replication, ask the
// partner whether it promoted over us, decide the role, open every route,
// then start the sender and the heartbeats. Serving before asking lets two
// nodes started together answer each other's probe at once.
//
// Stop order: the heartbeats stop, then Run's graceful sequence runs — so a
// cluster node stops exactly as a single server does, and its journal closes
// with every intent resolved — then the sender delivers the journal up to
// its last record (bounded by httpapi.DrainTimeout), so the partner's replica
// holds the outcomes the drain journaled, and only then do the replication
// listener and the replica connections close.
func (n *Node) Serve(ctx context.Context, httpLn, replLn net.Listener) error {
	n.mu.Lock()
	if n.killed || n.replLn != nil {
		n.mu.Unlock()
		return fmt.Errorf("cluster: node %q already served or killed", n.cfg.Self)
	}
	n.replLn = replLn
	n.mu.Unlock()

	// Run stops when runCtx ends, after the heartbeats have stopped.
	runCtx, stopRun := context.WithCancel(context.WithoutCancel(ctx))
	defer stopRun()
	served := make(chan error, 1)
	go func() { served <- n.srv.RunHandler(runCtx, httpLn, n) }()
	go n.acceptLoop(replLn)
	n.decideRole()

	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		return <-served // killed mid-probe; Kill aborted Run
	}
	// Under mu, so Kill either sees the sender up and stops it, or has
	// already marked the node killed.
	n.senderUp.Store(n.sender != nil)
	n.mu.Unlock()
	if n.sender != nil {
		go n.sender.run()
	}
	for _, owner := range n.cfg.Map.OwnersPartneredTo(n.cfg.Self) {
		go n.probeLoop(owner)
	}

	select {
	case <-ctx.Done():
	case <-n.stop:
	case err := <-served:
		// The HTTP listener failed and Run tore the server down.
		n.stopReplication()
		return err
	}
	n.mu.Lock()
	killed := n.killed
	n.mu.Unlock()
	if killed {
		return <-served // after Kill, Run returns at once: nothing drains
	}
	n.stopOnce.Do(func() { close(n.stop) })
	stopRun()
	err := <-served
	if n.sender != nil && n.senderUp.Load() {
		n.sender.deliver(httpapi.DrainTimeout)
	}
	n.stopReplication()
	return err
}

// stopReplication ends the heartbeats, closes the replication listener and
// the replica connections, and stops the sender.
func (n *Node) stopReplication() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.mu.Lock()
	replLn := n.replLn
	n.mu.Unlock()
	if replLn != nil {
		_ = replLn.Close()
	}
	n.closeReplicaConns()
	if n.sender != nil && n.senderUp.Load() {
		n.sender.Stop()
	}
}

// Kill simulates abrupt node death: admitted recoveries drop, journal writes
// stop, listeners close, in-flight HTTP connections abort. Nothing drains
// and nothing is flushed — the partner must survive on what replication
// already delivered.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.killed {
		n.mu.Unlock()
		return
	}
	n.killed = true
	n.mu.Unlock()

	n.srv.Service().Kill()
	n.srv.Abort()
	n.stopReplication()
}

func (n *Node) closeReplicaConns() {
	n.mu.Lock()
	states := make([]*replicaState, 0, len(n.replicas))
	for _, st := range n.replicas {
		states = append(states, st)
	}
	n.mu.Unlock()
	for _, st := range states {
		st.mu.Lock()
		if st.conn != nil {
			_ = st.conn.Close()
			st.conn = nil
		}
		st.mu.Unlock()
	}
}

// ServeHTTP serves the node's HTTP API once the role is decided. Until then
// every route but GET /v1/cluster/status waits (the partner's start-up
// probe must get its answer), so no tenant is served — and /healthz does
// not say 200 — before the node knows whether its partner promoted over
// it. After start-up the gate is one receive from a closed channel.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case <-n.ready:
	default:
		if r.Method != http.MethodGet || r.URL.Path != "/v1/cluster/status" {
			select {
			case <-n.ready:
			case <-r.Context().Done():
				return
			case <-n.stop:
				http.Error(w, "node stopped while starting", http.StatusServiceUnavailable)
				return
			}
		}
	}
	n.srv.ServeHTTP(w, r)
}

// decideRole runs the start-up probe (when there is a partner to ask),
// records its outcome and role, and opens the routes.
func (n *Node) decideRole() {
	outcome, standby := "", false
	if n.hasPartner {
		outcome, standby = n.probeStandby()
		log.Printf("cluster[%s]: start-up probe of partner %s: %s", n.cfg.Self, n.partner.Name, outcome)
		if standby {
			log.Printf("cluster[%s]: partner %s promoted itself over our shards; entering standby", n.cfg.Self, n.partner.Name)
		}
	}
	n.mu.Lock()
	n.startupProbe, n.standby = outcome, standby
	n.mu.Unlock()
	close(n.ready)
}

// probeStandby asks the partner, once at startup, whether it promoted
// itself over this node's shards while we were dead. If so we come back as
// a standby: our own tenants keep forwarding to the promoted partner (which
// holds the live recovery state), while our receiver catches up replicas in
// the background. It returns the probe's outcome (an
// httpapi.StartupProbe* value); only an answer can make this node a
// standby.
func (n *Node) probeStandby() (outcome string, standby bool) {
	client := &http.Client{Timeout: 500 * time.Millisecond}
	resp, err := client.Get(n.partner.URL + "/v1/cluster/status")
	if err != nil {
		return probeFailure(err, httpapi.StartupProbeUnreachable), false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpapi.StartupProbeUndecodable, false
	}
	var cs httpapi.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return probeFailure(err, httpapi.StartupProbeUndecodable), false
	}
	return httpapi.StartupProbeAnswered, slices.Contains(cs.PromotedFor, n.cfg.Self)
}

// probeFailure names a failed probe: the client's timeout, or otherwise.
func probeFailure(err error, otherwise string) string {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return httpapi.StartupProbeTimeout
	}
	return otherwise
}

// probeLoop heartbeats one owner whose partner this node is, and promotes
// over it when it stays unreachable past the budget.
func (n *Node) probeLoop(owner NodeInfo) {
	client := &http.Client{Timeout: n.cfg.Heartbeat}
	var downSince time.Time
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		n.mu.Lock()
		done := n.promoted[owner.Name] || n.killed
		standby := n.standby
		n.mu.Unlock()
		if done {
			return
		}
		if standby {
			continue // a standby's live state is elsewhere; it must not promote
		}
		ok := false
		if resp, err := client.Get(owner.URL + "/healthz"); err == nil {
			ok = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		if ok {
			downSince = time.Time{}
			continue
		}
		if downSince.IsZero() {
			downSince = time.Now()
			continue
		}
		if time.Since(downSince) >= n.cfg.HeartbeatBudget {
			n.promote(owner)
			return
		}
	}
}

// promote makes this node the serving owner of a dead partner's shards:
// routing flips to local, and the replicated journal's dangling intents are
// replayed through the full recovery pipeline — re-quarantine, re-predict,
// journal locally — exactly like a single node replaying its own journal
// after a crash, but from the partner copy.
func (n *Node) promote(owner NodeInfo) {
	n.mu.Lock()
	if n.promoted[owner.Name] || n.killed {
		n.mu.Unlock()
		return
	}
	n.promoted[owner.Name] = true
	st := n.replicas[owner.Name]
	n.mu.Unlock()

	dangling := 0
	if st != nil {
		intents := st.danglingIntents()
		dangling = len(intents)
		svc := n.srv.Service()
		deadline := time.Now().Add(30 * time.Second)
		for _, in := range intents {
			a, ok := n.eng.Table().ByTenantName(in.Tenant, in.Alloc)
			if !ok {
				log.Printf("cluster[%s]: promoted replay: allocation %q/%q gone, dropping intent %d", n.cfg.Self, in.Tenant, in.Alloc, in.ID)
				continue
			}
			for {
				// Addr 0: simulated addresses are node-local; resolve from
				// the replica allocation, not the dead owner's layout.
				err := svc.SubmitReplayed(a, 0, in.Offset)
				if err == nil {
					break
				}
				if !errors.Is(err, service.ErrOverloaded) || time.Now().After(deadline) {
					log.Printf("cluster[%s]: promoted replay of intent %d: %v", n.cfg.Self, in.ID, err)
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	log.Printf("cluster[%s]: promoted over %s after %s unreachable; replaying %d dangling intents", n.cfg.Self, owner.Name, n.cfg.HeartbeatBudget, dangling)

	// Our snapshot now spans the promoted tenants; resync our own partner
	// stream so a future rejoin of the dead owner catches up from us.
	if n.sender != nil {
		n.sender.forceReconnect()
	}
}

// snapshot captures every locally-served allocation (owned or promoted —
// anything Route says is local) for the connect-time replication snapshot.
func (n *Node) snapshot() []snapshotItem {
	var items []snapshotItem
	for _, a := range n.eng.Table().Allocations() {
		if _, local := n.Route(a.Tenant); !local {
			continue
		}
		items = append(items, snapshotItem{
			tenant:  a.Tenant,
			name:    a.Name,
			dims:    a.Array.Dims(),
			dtype:   a.DType.String(),
			policy:  policyToWire(a.Policy),
			payload: n.fieldPayload(a),
		})
	}
	return items
}

// Route implements httpapi.Cluster: which node serves a tenant right now.
func (n *Node) Route(tenant string) (string, bool) {
	owner := n.cfg.Map.Owner(tenant)
	n.mu.Lock()
	defer n.mu.Unlock()
	if owner.Name == n.cfg.Self {
		if n.standby && n.hasPartner {
			return n.partner.URL, false
		}
		return "", true
	}
	if n.promoted[owner.Name] {
		return "", true
	}
	return owner.URL, false
}

// Status implements httpapi.Cluster.
func (n *Node) Status() httpapi.ClusterStatus {
	cs := httpapi.ClusterStatus{Node: n.cfg.Self}
	if n.hasPartner {
		cs.Partner = n.partner.Name
	}
	n.mu.Lock()
	for name := range n.promoted {
		cs.PromotedFor = append(cs.PromotedFor, name)
	}
	cs.Standby = n.standby
	cs.StartupProbe = n.startupProbe
	n.mu.Unlock()
	sort.Strings(cs.PromotedFor)
	if n.sender != nil {
		cs.ReplicationLag = n.sender.lag()
		cs.PartnerDown = n.sender.downFor() > n.cfg.HeartbeatBudget
	}
	cs.Degraded = cs.Standby || cs.PartnerDown || len(cs.PromotedFor) > 0
	return cs
}

// AllocRegistered implements httpapi.Cluster: stream a new registration to
// the partner.
func (n *Node) AllocRegistered(a *registry.Allocation) {
	if n.sender == nil || a == nil {
		return
	}
	n.sender.enqueueControl(func() outMsg {
		return outMsg{h: frameHeader{
			Type:   frameAlloc,
			Tenant: a.Tenant,
			Alloc:  a.Name,
			Dims:   a.Array.Dims(),
			DType:  a.DType.String(),
			Policy: policyToWire(a.Policy),
		}}
	})
}

// FieldUploaded implements httpapi.Cluster: stream new field contents to
// the partner. The payload is captured here, stripe by stripe — the upload
// path no longer materializes a contiguous buffer to hand over. A recovery
// write that lands in a not-yet-captured stripe may ride along, which is
// benign: its journal record replays idempotently on the replica (outcomes
// carry explicit NewBits), the same property the connect-time snapshot
// already relies on.
func (n *Node) FieldUploaded(a *registry.Allocation) {
	if n.sender == nil || a == nil {
		return
	}
	n.sender.enqueueControl(func() outMsg {
		return outMsg{
			h:       frameHeader{Type: frameField, Tenant: a.Tenant, Alloc: a.Name},
			payload: n.fieldPayload(a),
		}
	})
}

// fieldPayload captures a field in the wire format with the codec a
// download uses, one stripe lock at a time, so capturing a 1 GiB field
// never stalls recoveries behind a full-array lock. The payload is the one
// whole-field buffer; WriteField fills it through a one-stripe scratch.
func (n *Node) fieldPayload(a *registry.Allocation) []byte {
	buf := bytes.NewBuffer(make([]byte, 0, a.Array.Len()*8))
	_ = httpapi.WriteField(n.eng, a.Array, buf) // a bytes.Buffer write never fails
	return buf.Bytes()
}

// AllocUnregistered implements httpapi.Cluster: stream a teardown to the
// partner.
func (n *Node) AllocUnregistered(tenant, name string) {
	if n.sender == nil {
		return
	}
	n.sender.enqueueTeardown(outMsg{h: frameHeader{Type: frameUnreg, Tenant: tenant, Alloc: name}})
}
