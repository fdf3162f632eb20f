// Command duerecover demonstrates a single end-to-end DUE recovery: it
// generates a dataset, registers it with the recovery engine, injects a
// random bit flip, raises a simulated machine-check exception for the
// faulting address, and reports the reconstruction accuracy of the
// engine's repair.
//
// Usage:
//
//	duerecover [-dataset CESM/FLDS] [-method "Lorenzo 1-Layer"|any]
//	           [-trials 5] [-seed 1] [-scale small]
//
// With -listen ADDR it runs the networked recovery server instead: the full
// HTTP/JSON API (tenant-scoped allocation registration, field
// upload/download, DUE event ingestion, outcome and quarantine queries,
// /metrics, /readyz) in front of the resilient recovery service — admission
// control, a write-ahead journal, at most -workers recoveries at once, each
// on the goroutine that delivered it. The demo dataset is pre-registered in
// the default tenant. SIGTERM/SIGINT shuts down gracefully: the listener
// stops accepting, in-flight requests and bank-latched events drain, then
// the recovery service drains and the journal closes:
//
//	duerecover -listen :8080 [-workers 4] [-queue 64] [-deadline 2s]
//	           [-journal recovery.jsonl] [-enable-inject=false]
//
// With -cluster-config as well, the server runs as one node of a recovery
// cluster, with partner replication and failover, and stops the same way:
//
//	duerecover -listen :8080 -cluster-config ring.json -cluster-node a
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spatialdue"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/cluster"
	"spatialdue/internal/faultinject"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/ndarray/mmapstore"
	"spatialdue/internal/sdrbench"
	"spatialdue/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "duerecover: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and runs the one-shot trials, or the server until ctx is
// cancelled, writing its report to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("duerecover", flag.ContinueOnError)
	var (
		dataset   = fs.String("dataset", "CESM/FLDS", "dataset to protect, as APP/NAME")
		method    = fs.String("method", "any", `recovery method name, or "any" for auto-tuning`)
		trials    = fs.Int("trials", 5, "number of injected DUEs")
		seed      = fs.Int64("seed", 1, "random seed")
		scaleFlag = fs.String("scale", "small", "dataset scale: tiny, small, medium")

		tuneCache = fs.Int("tune-cache", 8, "cache RECOVER_ANY tuning decisions per lock stripe, adaptively re-tuned in spatial hot spots (0 disables; the value is an enable switch — regions are always lock stripes)")
		traceTop  = fs.Int("trace-top", 0, "dump the N slowest recovery traces (per-stage spans) on exit (0 disables)")

		listen       = fs.String("listen", "", "run the networked HTTP recovery API on this address (e.g. :8080) instead of the one-shot trials")
		workers      = fs.Int("workers", 4, "listen: how many recoveries run at once (each on the goroutine that delivered it)")
		queue        = fs.Int("queue", 64, "listen: admission bound: recoveries admitted but not yet started; past it events are rejected and stay bank-latched")
		deadline     = fs.Duration("deadline", 2*time.Second, "listen: per-recovery deadline (negative disables)")
		jpath        = fs.String("journal", "", "listen: crash-safe recovery journal path (empty disables; a cluster node defaults it to -data-dir/journal.jsonl)")
		enableInject = fs.Bool("enable-inject", true, "listen: expose the fault-injection endpoint (disable for production shapes)")
		predictorOn  = fs.Bool("predictor", false, "listen: enable the predictive memory-health tier (CE ingestion, GET /v1/health, proactive scrub/checkpoint/row-offline actions)")
		fieldStore   = fs.String("field-store", "heap", `listen: field storage backing, "heap" (Go slices) or "mmap" (file-backed fields under -data-dir/fields; streamed upload/download, cold tenants page out, fields persist across restarts)`)
		dataDir      = fs.String("data-dir", "", "listen: directory for journal, partner-replica, and mmap field-store files (default .spatialdue-<node> in cluster mode, .spatialdue otherwise)")
		clusterCfg   = fs.String("cluster-config", "", "listen: cluster membership map JSON; joins the node named by -cluster-node to a recovery cluster with partner replication and failover")
		clusterNode  = fs.String("cluster-node", "", "cluster: this node's name in -cluster-config")
		heartbeat    = fs.Duration("heartbeat", 250*time.Millisecond, "cluster: partner liveness probe interval")
		hbBudget     = fs.Duration("heartbeat-budget", 2*time.Second, "cluster: unreachable time before the partner promotes itself over a dead owner")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, err := sdrbench.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	parts := strings.SplitN(*dataset, "/", 2)
	if len(parts) != 2 {
		return fmt.Errorf("-dataset wants APP/NAME, got %q", *dataset)
	}
	app, err := sdrbench.ParseApp(parts[0])
	if err != nil {
		return err
	}
	ds := sdrbench.Generate(app, parts[1], scale)

	policy := spatialdue.RecoverAny()
	if *method != "any" {
		m, err := spatialdue.ParseMethod(*method)
		if err != nil {
			return err
		}
		policy = spatialdue.RecoverWith(m)
	}

	eng := spatialdue.NewEngine(spatialdue.Options{
		Seed: *seed, TuneCacheBlock: *tuneCache,
	})

	if *listen == "" {
		if *clusterCfg != "" {
			return errors.New("-cluster-config requires -listen")
		}
		if err := runTrials(stdout, eng, ds, policy, *trials, *seed); err != nil {
			return err
		}
		dumpTraces(stdout, eng, *traceTop)
		return nil
	}

	dir := *dataDir
	if dir == "" {
		dir = ".spatialdue"
		if *clusterCfg != "" {
			dir += "-" + *clusterNode
		}
	}
	cfg := httpapi.ServerConfig{
		Service: service.Config{
			Workers: *workers, QueueDepth: *queue, Deadline: *deadline,
			JournalPath: *jpath, JournalSync: true, Seed: *seed,
		},
		EnableInject: *enableInject,
		Predictor:    *predictorOn,
		FieldStore:   *fieldStore,
		DataDir:      dir,
	}
	var svc *service.Service
	if *clusterCfg != "" {
		svc, err = serveNode(ctx, stdout, eng, *listen, *clusterCfg, cluster.Config{
			Self: *clusterNode, DataDir: dir,
			Heartbeat: *heartbeat, HeartbeatBudget: *hbBudget,
			Server: cfg,
		})
	} else {
		svc, err = serveSingle(ctx, stdout, eng, ds, policy, *listen, cfg)
	}
	if err != nil {
		return err
	}
	st := svc.Stats()
	fmt.Fprintf(stdout, "drained: %d submitted, %d accepted, %d rejected, %d recovered, %d failed, %d retries, %d replayed\n",
		st.Submitted, st.Accepted, st.Rejected, st.Recovered, st.Failed, st.Retries, st.Replayed)
	dumpTraces(stdout, eng, *traceTop)
	return nil
}

// runTrials protects the dataset, injects one bit flip per trial, lets the
// simulated memory controller discover it, and reports each repair.
func runTrials(stdout io.Writer, eng *spatialdue.Engine, ds *sdrbench.Dataset, policy spatialdue.Policy, trials int, seed int64) error {
	alloc := eng.Protect(ds.Name, ds.Array, ds.DType, policy)
	machine := spatialdue.NewMCA(4)
	eng.AttachMCA(machine)

	fmt.Fprintf(stdout, "protected %s as %v\n\n", ds, alloc)

	inj := faultinject.New(seed, ds.DType)
	for t := 0; t < trials; t++ {
		trial := inj.PlanOne(ds.Array)
		faultinject.Apply(ds.Array, trial)
		addr := alloc.AddrOf(trial.Offset)

		// The memory controller discovers the fault on access and raises an
		// MCE; the attached engine recovers in place.
		machine.Plant(addr, trial.Bit)
		faulted, err := machine.Touch(addr, ds.DType.Size())
		if !faulted {
			return fmt.Errorf("trial %d: fault not discovered", t)
		}
		if err != nil {
			fmt.Fprintf(stdout, "trial %d: unrecoverable: %v\n", t, err)
			faultinject.Revert(ds.Array, trial)
			continue
		}
		recovered := ds.Array.AtOffset(trial.Offset)
		re := bitflip.RelErr(trial.Orig, recovered)
		fmt.Fprintf(stdout, "trial %d: elem %v bit %2d: %.6g -> corrupted %.6g -> recovered %.6g (rel err %.4g%%)\n",
			t, ds.Array.Coords(trial.Offset), trial.Bit, trial.Orig, trial.Corrupted, recovered, 100*re)
		faultinject.Revert(ds.Array, trial)
	}

	st := eng.Stats()
	fmt.Fprintf(stdout, "\nengine: %d recovered (%d auto-tuned), %d checkpoint-restart fallbacks\n",
		st.Recovered, st.Tuned, st.Fallbacks)
	return nil
}

// dumpTraces prints the n slowest recovery traces with their per-stage
// spans — the CLI view of GET /v1/traces.
func dumpTraces(stdout io.Writer, eng *spatialdue.Engine, n int) {
	if n <= 0 {
		return
	}
	top := eng.Tracer().Top()
	if len(top) > n {
		top = top[:n]
	}
	fmt.Fprintf(stdout, "\nslowest %d of %d collected traces:\n", len(top), eng.Tracer().Finished())
	for i, sum := range top {
		status := "ok"
		if !sum.OK {
			status = "FAILED"
		}
		fmt.Fprintf(stdout, "%2d. %s %s[%d] %s total %.3fms (%s)\n",
			i+1, sum.ID, sum.Alloc, sum.Offset, status, sum.TotalSeconds*1e3, sum.Detail)
		for _, sp := range sum.Spans {
			fmt.Fprintf(stdout, "      %-18s +%.3fms %10.3fms\n",
				sp.Stage, sp.StartSeconds*1e3, sp.DurSeconds*1e3)
		}
	}
}

// serveNode joins the networked server to a recovery cluster until ctx is
// cancelled: tenant ownership is consistent-hashed over the membership map
// at mapPath, non-owned requests are 307-forwarded to their shard owner,
// and every field upload and journal record is replicated to the node's
// partner, which promotes itself and replays if this node dies. No demo
// dataset is pre-registered: a locally-registered allocation for a tenant
// another node owns would shadow cluster routing.
func serveNode(ctx context.Context, stdout io.Writer, eng *spatialdue.Engine, addr, mapPath string, cfg cluster.Config) (*service.Service, error) {
	if cfg.Self == "" {
		return nil, errors.New("-cluster-config requires -cluster-node")
	}
	m, err := cluster.LoadMap(mapPath)
	if err != nil {
		return nil, err
	}
	self, ok := m.Node(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("node %q not in cluster map [%s]", cfg.Self, m)
	}
	if self.Repl == "" {
		return nil, fmt.Errorf("node %q has no repl address in the cluster map", cfg.Self)
	}
	httpLn, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	replLn, err := net.Listen("tcp", self.Repl)
	if err != nil {
		httpLn.Close()
		return nil, fmt.Errorf("replication listen: %w", err)
	}
	cfg.Map = m
	node, err := cluster.New(eng, cfg)
	if err != nil {
		httpLn.Close()
		replLn.Close()
		return nil, err
	}
	fmt.Fprintf(stdout, "cluster node %q: API on http://%s, replication on %s, ring [%s]\n",
		cfg.Self, httpLn.Addr(), replLn.Addr(), m)
	if err := node.Serve(ctx, httpLn, replLn); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return node.Server().Service(), nil
}

// serveSingle runs the networked recovery server until ctx is cancelled.
// The demo dataset is pre-registered in the default tenant so the curl
// examples in the README work against a fresh server.
func serveSingle(ctx context.Context, stdout io.Writer, eng *spatialdue.Engine, ds *sdrbench.Dataset, policy spatialdue.Policy, addr string, cfg httpapi.ServerConfig) (*service.Service, error) {
	// With -field-store=mmap the demo dataset moves into a file-backed
	// array: a fresh file is seeded from the generated data, while an
	// existing file from a previous run is remapped as-is (restart
	// semantics — journal replay then re-applies quarantine on top of the
	// persisted field, same contract as API-registered allocations).
	demoArr := ds.Array
	if cfg.FieldStore == httpapi.FieldStoreMmap {
		path := httpapi.FieldPath(cfg.DataDir, httpapi.DefaultTenant, ds.Name)
		_, statErr := os.Stat(path)
		fresh := os.IsNotExist(statErr)
		st, err := mmapstore.OpenOrCreate(path, ds.Array.Len())
		if err != nil {
			return nil, err
		}
		if demoArr, err = ndarray.NewWithBacking(st, ds.Array.Dims()...); err != nil {
			return nil, err
		}
		if fresh {
			copy(demoArr.Data(), ds.Array.Data())
			if err := demoArr.Seal(); err != nil {
				return nil, err
			}
		}
	}
	// Register before NewServer: journal replay resolves intents against
	// already-registered (tenant, name) pairs.
	if _, err := eng.ProtectTenant(httpapi.DefaultTenant, ds.Name, demoArr, ds.DType, policy); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv, err := httpapi.NewServer(eng, cfg)
	if err != nil {
		l.Close()
		return nil, err
	}
	if replayed := srv.Service().Stats().Replayed; replayed > 0 {
		fmt.Fprintf(stdout, "journal: replaying %d unfinished recoveries from %s\n", replayed, cfg.Service.JournalPath)
	}
	fmt.Fprintf(stdout, "recovery API on http://%s (dataset %s pre-registered as %q in tenant %q, inject=%v, field-store=%s)\n",
		l.Addr(), ds, ds.Name, httpapi.DefaultTenant, cfg.EnableInject, cfg.FieldStore)
	if cfg.Predictor {
		fmt.Fprintf(stdout, "predictive health tier enabled (CE ingest via POST /v1/events kind=ce, report on GET /v1/health)\n")
	}
	if err := srv.Run(ctx, l); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return srv.Service(), nil
}
