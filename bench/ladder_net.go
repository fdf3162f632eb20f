package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spatialdue/internal/faultinject"
)

// The networked depths of the ladder: loopback HTTP against one node with
// the shipped defaults (depth 6) and against a two-node cluster (depth 7).
// Each depth is measured twice: with one client, for the layer's self time,
// and with as many clients as the workload runs, for what sharing the
// machine with the other clients and the server adds.

// concurrentMinimum is how long the all-clients replay measures. A few
// dozen milliseconds right after set-up would mostly measure warm-up.
const concurrentMinimum = 400 * time.Millisecond

// replayConcurrently runs every client's closed loop at once: each calls
// one(f, i) for i = 0, 1, ... until the time is up. The first quarter of the
// time is warm-up; latencies (microseconds) returned after it are pooled.
func replayConcurrently(fleet []*fleetClient, d time.Duration, one func(f *fleetClient, i int) ([]float64, error)) ([]float64, error) {
	var (
		mu     sync.Mutex
		pooled []float64
		first  error
		wg     sync.WaitGroup
	)
	start := time.Now()
	warmUntil, until := start.Add(d/4), start.Add(d/4+d)
	for _, f := range fleet {
		wg.Add(1)
		go func(f *fleetClient) {
			defer wg.Done()
			var mine []float64
			for i := 0; time.Now().Before(until); i++ {
				us, err := one(f, i)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
				if time.Now().After(warmUntil) {
					mine = append(mine, us...)
				}
			}
			mu.Lock()
			pooled = append(pooled, mine...)
			mu.Unlock()
		}(f)
	}
	wg.Wait()
	return pooled, first
}

// singleEvent is the per-event closed loop of http_single and cluster_pair.
func singleEvent(f *fleetClient, i int) ([]float64, error) {
	_, lat, err := f.recoverOne(context.Background(), f.trials[i%len(f.trials)], &clientLog{}, uint64(i))
	if err != nil {
		return nil, err
	}
	return []float64{float64(lat) / 1e3}, nil
}

// stormBatchOf is the i-th 64-line batch of a client's plan, wrapping.
func stormBatchOf(trials []faultinject.Trial, i int) []faultinject.Trial {
	n := len(trials)
	size := stormBatch
	if size > n {
		size = n
	}
	batch := make([]faultinject.Trial, size)
	for k := range batch {
		batch[k] = trials[(i*size+k)%n]
	}
	return batch
}

// stormEvent is the per-batch closed loop of http_storm.
func stormEvent(f *fleetClient, i int) ([]float64, error) {
	batch := stormBatchOf(f.trials, i)
	_, lats, ok := f.stormOnce(context.Background(), batch, &clientLog{}, uint64(i))
	if ok != len(batch) {
		return nil, fmt.Errorf("storm batch %d: %d of %d lines recovered", i, ok, len(batch))
	}
	us := make([]float64, len(lats))
	for k, d := range lats {
		us[k] = float64(d) / 1e3
	}
	return us, nil
}

// httpDepthOut is the HTTP depth of the ladder plus the HTTP-only probes.
type httpDepthOut struct {
	metrics      map[string]float64
	oneClientUS  []float64 // ingest-to-outcome, one client
	allClientsUS []float64 // single events from every client at once
	stormEventUS []float64 // per-event latency of 64-line batches from every client at once
}

func trialsAt(offs []int) []faultinject.Trial {
	trials := make([]faultinject.Trial, len(offs))
	for i, off := range offs {
		trials[i] = faultinject.Trial{Offset: off}
	}
	return trials
}

// httpDepth replays the events over loopback HTTP against a server with the
// shipped defaults, and probes the endpoints a recovery does not pass
// through (healthz, synchronous recover, stream, upload, download).
func httpDepth(ls ladderSpec, trials []faultinject.Trial, ctx *runCtx, dir string, spans *spanLog) (*httpDepthOut, error) {
	bg := context.Background()
	spec := ls.field
	out := &httpDepthOut{metrics: map[string]float64{}}
	m := out.metrics
	srv, err := startServer(spec.opts, shippedServerConfig(spec.opts.Seed, filepath.Join(dir, "http-journal.jsonl")))
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	// One tenant per client, each with its own copy of the field, as in
	// http_single. Client 0 alone gives the one-client depth.
	fleet := make([]*fleetClient, ctx.clients)
	for c := range fleet {
		fleet[c] = &fleetClient{sdk: newSDK(srv.base, fmt.Sprintf("ladder-c%d", c)), spec: spec, trials: trials}
		if err := fleet[c].registerAndUpload(bg); err != nil {
			return nil, fmt.Errorf("ladder http depth: %w", err)
		}
	}
	// First lap unrecorded: connections, pools and the outcome ring warm up,
	// and every site takes the value it will keep (a site's reconstruction
	// does not depend on the lap).
	own := newSpanLog()
	for lap, rec := range []*clientLog{{}, {spans: own}} {
		for i, t := range trials {
			_, lat, err := fleet[0].recoverOne(bg, t, rec, uint64(i))
			if err != nil {
				return nil, fmt.Errorf("ladder http depth: %w", err)
			}
			if lap == 1 {
				out.oneClientUS = append(out.oneClientUS, float64(lat)/1e3)
			}
		}
	}
	ingest := sortedCopy(own.durationsUS("httpapi.ingest"))
	m["httpapi.ingest_p50_us"] = percentile(ingest, 0.5)
	m["httpapi.ingest_p99_us"] = percentile(ingest, 0.99)
	m["httpapi.outcomes_poll_us"] = median(own.durationsUS("httpapi.outcomes_poll"))
	spans.absorb(own)

	d := concurrentMinimum
	if ctx.smoke {
		d = 40 * time.Millisecond
	}
	if out.allClientsUS, err = replayConcurrently(fleet, d, singleEvent); err != nil {
		return nil, fmt.Errorf("ladder http depth (all clients): %w", err)
	}

	// Endpoint probes, client 0, idle server.
	f := fleet[0]
	hc := &http.Client{}
	rtt := ctx.timeBudget(20*time.Millisecond, 16, func(int) {
		if resp, err := hc.Get(srv.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	m["httpapi.healthz_rtt_us"] = median(rtt) / 1e3
	sync := ctx.timeBudget(20*time.Millisecond, 8, func(i int) {
		_, _ = f.sdk.Recover(bg, spec.alloc, trials[i%len(trials)].Offset)
	})
	m["httpapi.sync_recover_us"] = median(sync) / 1e3

	// NDJSON: one idle-server batch for the per-line request cost, then
	// every client storming at once, each inside its own band of one shared
	// field (their own plans on http_storm; elsewhere client 0's sites,
	// which then contend for the same stripes — the honest worst case).
	probeSpans := newSpanLog()
	batch := stormBatchOf(trials, 0)
	for rep := 0; rep < 3; rep++ {
		if _, _, ok := f.stormOnce(bg, batch, &clientLog{spans: probeSpans}, uint64(1<<32+rep)); ok != len(batch) {
			return nil, fmt.Errorf("ladder storm probe: %d of %d lines recovered", ok, len(batch))
		}
	}
	m["httpapi.stream_line_us"] = median(probeSpans.durationsUS("httpapi.ingest_batch")) / float64(len(batch))
	spans.absorb(probeSpans)
	if ls.kind == ladderStorm {
		stormers := make([]*fleetClient, 0, len(ls.storm))
		for _, offs := range ls.storm {
			stormers = append(stormers, &fleetClient{sdk: newSDK(srv.base, "ladder-c0"), spec: spec, trials: trialsAt(offs)})
		}
		if out.stormEventUS, err = replayConcurrently(stormers, d, stormEvent); err != nil {
			return nil, fmt.Errorf("ladder storm replay: %w", err)
		}
	}

	// Full-field transfer on an otherwise idle server.
	vals := spec.pristine
	mib := float64(len(vals)*8) / (1 << 20)
	up := ctx.timeBudget(50*time.Millisecond, 2, func(int) { _ = f.sdk.Upload(bg, spec.alloc, vals) })
	down := ctx.timeBudget(50*time.Millisecond, 2, func(int) { _, _ = f.sdk.Download(bg, spec.alloc) })
	m["httpapi.upload_ms"] = median(up) / 1e6
	m["httpapi.download_ms"] = median(down) / 1e6
	m["httpapi.upload_mb_per_s"] = mib / (median(up) / 1e9)
	m["httpapi.download_mb_per_s"] = mib / (median(down) / 1e9)

	for k, v := range serverCounters(f.sdk, srv.srv) {
		m[k] = v
	}
	return out, nil
}

// pairDepthOut is the cluster depth of the ladder.
type pairDepthOut struct {
	metrics      map[string]float64
	ownerUS      []float64 // entering at the tenant's owner
	forwardUS    []float64 // entering at the other node (307 forward)
	concurrentUS []float64 // the workload's entries at once, as cluster_pair runs them
}

// pairDepth replays the events against a two-node cluster.
func pairDepth(ls ladderSpec, trials []faultinject.Trial, ctx *runCtx, dir string, spans *spanLog) (*pairDepthOut, error) {
	bg := context.Background()
	spec := ls.field
	out := &pairDepthOut{metrics: map[string]float64{}}
	pair, err := startPair(spec.opts, filepath.Join(dir, "pair"))
	if err != nil {
		return nil, err
	}
	defer pair.stop()
	tenant := pair.ownedBy(0, "ladder")
	owner := &fleetClient{sdk: newSDK(pair.nodes[0].base, tenant), spec: spec, trials: trials}
	forward := &fleetClient{sdk: newSDK(pair.nodes[1].base, tenant), spec: spec, trials: trials}
	if err := owner.registerAndUpload(bg); err != nil {
		return nil, fmt.Errorf("ladder cluster depth: %w", err)
	}
	if _, err := pair.awaitReplicated(10 * time.Second); err != nil {
		return nil, err
	}
	maxLag := 0.0
	recoveries := 0
	lap := func(f *fleetClient, name string, dst *[]float64) error {
		rec := &clientLog{spans: spans}
		for i, t := range trials {
			_, lat, err := f.recoverOne(bg, t, rec, uint64(i))
			if err != nil {
				return fmt.Errorf("ladder cluster depth (%s): %w", name, err)
			}
			recoveries++
			if dst != nil {
				*dst = append(*dst, float64(lat)/1e3)
			}
			if st := pair.status(0); float64(st.ReplicationLag) > maxLag {
				maxLag = float64(st.ReplicationLag)
			}
		}
		return nil
	}
	if err := lap(owner, "warm-up", nil); err != nil { // as in the HTTP depth
		return nil, err
	}
	if err := lap(owner, "owner", &out.ownerUS); err != nil {
		return nil, err
	}
	if err := lap(forward, "forwarded", &out.forwardUS); err != nil {
		return nil, err
	}
	catchup, err := pair.awaitReplicated(10 * time.Second)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	m["cluster.repl_lag_records_max"] = maxLag
	m["cluster.repl_catchup_ms"] = float64(catchup) / 1e6
	// Node a's journal, as its partner b holds it, has one intent and one
	// outcome record per recovery of the laps above.
	if st, err := os.Stat(pair.nodes[1].replicaPath(pair.nodes[0].name)); err == nil {
		m["cluster.replica_bytes_per_recovery"] = float64(st.Size()) / float64(recoveries)
	}

	// The workload's entries at once: client c's tenant is owned by node
	// c%2; even clients enter at the owner, odd ones are forwarded.
	fleet := make([]*fleetClient, ctx.clients)
	for c := range fleet {
		ownerNode, entry := c%2, c%2
		if c%2 == 1 {
			entry = 1 - ownerNode
		}
		fleet[c] = &fleetClient{sdk: newSDK(pair.nodes[entry].base, pair.ownedBy(ownerNode, fmt.Sprintf("ladder-c%d", c))), spec: spec, trials: trials}
		if err := fleet[c].registerAndUpload(bg); err != nil {
			return nil, fmt.Errorf("ladder cluster depth: %w", err)
		}
	}
	// As in cluster_pair's set-up: the partner must hold the new fields
	// before traffic starts, or the replay would share the replication
	// stream with 8 MiB field frames.
	if _, err := pair.awaitReplicated(10 * time.Second); err != nil {
		return nil, err
	}
	d := concurrentMinimum
	if ctx.smoke {
		d = 40 * time.Millisecond
	}
	if out.concurrentUS, err = replayConcurrently(fleet, d, singleEvent); err != nil {
		return nil, fmt.Errorf("ladder cluster depth (all clients): %w", err)
	}
	return out, nil
}
