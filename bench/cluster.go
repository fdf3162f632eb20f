package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"spatialdue/internal/cluster"
	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/journal"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
)

// liveNode is one in-process cluster member.
type liveNode struct {
	name    string
	node    *cluster.Node
	eng     *core.Engine
	base    string
	dataDir string
	cancel  context.CancelFunc
	done    chan error
	stopped bool
}

func (n *liveNode) stop() {
	if n.stopped {
		return
	}
	n.stopped = true
	n.cancel()
	<-n.done
}

func (n *liveNode) journalPath() string { return filepath.Join(n.dataDir, "journal.jsonl") }

// replicaPath is where this node keeps its copy of owner's journal.
func (n *liveNode) replicaPath(owner string) string {
	return filepath.Join(n.dataDir, "replica-"+owner+".jsonl")
}

// livePair is a two-node cluster: each node owns tenants and replicates its
// journal to the other.
type livePair struct {
	nodes [2]*liveNode
	ring  *cluster.Map
}

// startPair brings two nodes up on loopback listeners and waits until both
// are healthy and each sender has connected to its partner.
func startPair(opts core.Options, dir string) (*livePair, error) {
	var httpLn, replLn [2]net.Listener
	for i := range httpLn {
		var err error
		if httpLn[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		if replLn[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	names := [2]string{"a", "b"}
	ring, err := cluster.NewMap([]cluster.NodeInfo{
		{Name: names[0], URL: "http://" + httpLn[0].Addr().String(), Repl: replLn[0].Addr().String()},
		{Name: names[1], URL: "http://" + httpLn[1].Addr().String(), Repl: replLn[1].Addr().String()},
	}, 0)
	if err != nil {
		return nil, err
	}
	p := &livePair{ring: ring}
	for i, name := range names {
		dataDir := filepath.Join(dir, "node-"+name)
		eng := core.NewEngine(opts)
		// JournalPath is left empty: the node defaults it to
		// DataDir/journal.jsonl and installs its replication sink.
		node, err := cluster.New(eng, cluster.Config{
			Self: name, Map: ring, DataDir: dataDir,
			Server: shippedServerConfig(opts.Seed, ""),
		})
		if err != nil {
			p.stop()
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		ln := &liveNode{name: name, node: node, eng: eng, base: "http://" + httpLn[i].Addr().String(),
			dataDir: dataDir, cancel: cancel, done: make(chan error, 1)}
		go func(i int) { ln.done <- node.Serve(ctx, httpLn[i], replLn[i]) }(i)
		p.nodes[i] = ln
	}
	for _, n := range p.nodes {
		if err := waitHealthy(n.base); err != nil {
			p.stop()
			return nil, err
		}
	}
	return p, nil
}

func (p *livePair) stop() {
	for _, n := range p.nodes {
		if n != nil {
			n.stop()
		}
	}
}

// ownedBy finds a tenant name the ring assigns to node i.
func (p *livePair) ownedBy(i int, prefix string) string {
	for k := 0; ; k++ {
		t := prefix + "-" + strconv.Itoa(k)
		if p.ring.Owner(t).Name == p.nodes[i].name {
			return t
		}
	}
}

// status is node i's cluster status — what GET /v1/cluster/status serves.
func (p *livePair) status(i int) httpapi.ClusterStatus { return p.nodes[i].node.Status() }

// awaitReplicated waits until both nodes report zero replication lag and
// both replica journals hold as many records as their owner's journal,
// returning how long that took.
func (p *livePair) awaitReplicated(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	for {
		lagging := ""
		for i, n := range p.nodes {
			st := p.status(i)
			if st.ReplicationLag != 0 {
				lagging = fmt.Sprintf("node %s: %d records unacknowledged", n.name, st.ReplicationLag)
				break
			}
			own, err := journal.CountRecords(n.journalPath())
			if err != nil {
				return 0, err
			}
			partner := p.nodes[1-i]
			// A replica file that does not exist yet holds zero records.
			rep, err := journal.CountRecords(partner.replicaPath(n.name))
			if err != nil && !os.IsNotExist(err) {
				return 0, err
			}
			if rep != own {
				lagging = fmt.Sprintf("node %s holds %d of node %s's %d journal records", partner.name, rep, n.name, own)
				break
			}
		}
		if lagging == "" {
			return time.Since(t0), nil
		}
		if time.Since(t0) > timeout {
			return time.Since(t0), fmt.Errorf("replication did not catch up in %v: %s", timeout, lagging)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- cluster_pair ----------------------------------------------------------

// clusterPair is http_single's traffic on two nodes: client c's tenant is
// owned by node c%2; even clients enter at the owner, odd clients at the
// other node and are 307-forwarded on every request.
type clusterPair struct {
	ctx     *runCtx
	pair    *livePair
	fleet   []*fleetClient
	scratch string
}

func setupClusterPair(ctx *runCtx) (*clusterPair, error) {
	dir, err := os.MkdirTemp(ctx.scratch, "pair-")
	if err != nil {
		return nil, err
	}
	pair, err := startPair(shippedEngineOptions(ctx.seed), dir)
	if err != nil {
		return nil, err
	}
	cp := &clusterPair{ctx: ctx, pair: pair, scratch: dir}
	for c := 0; c < ctx.clients; c++ {
		label := "c" + strconv.Itoa(c)
		owner := c % 2
		entry := owner
		if c%2 == 1 {
			entry = 1 - owner
		}
		spec := synthSpec(ctx, label, registry.RecoverWith(predict.MethodLorenzo1))
		fc := &fleetClient{sdk: newSDK(pair.nodes[entry].base, pair.ownedBy(owner, "bench-"+label)), spec: spec,
			trials: scatteredTrials(ctx.seed, label, spec, wholeArray(spec.dims), singleGrid(ctx))}
		if err := fc.registerAndUpload(context.Background()); err != nil {
			cp.close()
			return nil, err
		}
		cp.fleet = append(cp.fleet, fc)
	}
	// Set-up ends when the partner holds the registrations and fields.
	if _, err := pair.awaitReplicated(10 * time.Second); err != nil {
		cp.close()
		return nil, err
	}
	return cp, nil
}

func (cp *clusterPair) clients() int { return len(cp.fleet) }

func (cp *clusterPair) quality() ([]recoveryRecord, error) {
	return cp.fleet[0].qualityOverHTTP(cp.fleet[0].trials), nil
}

func (cp *clusterPair) reference() ([]float64, error) {
	return referenceElements(cp.fleet[0].spec, cp.fleet[0].trials, false)
}

func (cp *clusterPair) op(c, i int, rec *clientLog) (int, int) {
	return cp.fleet[c].recoverNext(c, i, rec)
}

func (cp *clusterPair) finish() []error {
	errs := checkQuarantineEmpty(cp.fleet)
	if _, err := cp.pair.awaitReplicated(10 * time.Second); err != nil {
		errs = append(errs, err)
	}
	cp.pair.stop()
	for _, n := range cp.pair.nodes {
		if err := checkJournalClosed(n.journalPath(), cp.scratch); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// counters reads node a's layers (its /metrics is not tenant-routed, so
// any client of that node will do) and times how long replication takes to
// drain once the traffic has stopped.
func (cp *clusterPair) counters() map[string]float64 {
	out := serverCounters(newSDK(cp.pair.nodes[0].base, ""), cp.pair.nodes[0].node.Server())
	if d, err := cp.pair.awaitReplicated(10 * time.Second); err == nil {
		out["cluster.repl_catchup_ms"] = float64(d) / 1e6
	}
	return out
}

func (cp *clusterPair) ladder() ladderSpec {
	return ladderSpec{field: cp.fleet[0].spec, offsets: offsetsOf(cp.fleet[0].trials), kind: ladderPair,
		generate: func() { synthField(cp.ctx.seed, cp.ctx.fieldSide(), cp.ctx.fieldSide()) }}
}

func (cp *clusterPair) close() {
	cp.pair.stop()
	_ = os.RemoveAll(cp.scratch)
}
