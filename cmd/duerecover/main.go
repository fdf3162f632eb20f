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
// With -serve it instead runs the resilient recovery service: MCA events
// stream through admission control and a write-ahead journal, each
// recovering on the goroutine that delivered it with at most -workers
// recoveries at once, and SIGTERM/SIGINT drains gracefully:
//
//	duerecover -serve [-workers 4] [-queue 64] [-deadline 2s]
//	           [-journal recovery.jsonl] [-events 200] [-rate 100]
//	           [-metrics-addr :9090]
//
// With -serve -listen ADDR it runs the networked recovery server instead:
// the full HTTP/JSON API (tenant-scoped allocation registration, field
// upload/download, DUE event ingestion, outcome and quarantine queries,
// /metrics, /readyz) in front of the same resilient service. The demo
// dataset is pre-registered in the default tenant. SIGTERM/SIGINT shuts
// down gracefully: the listener stops accepting, in-flight requests and
// bank-latched events drain, then the recovery service drains:
//
//	duerecover -serve -listen :8080 [-enable-inject=false] [-journal ...]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
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
	"spatialdue/internal/metrics"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/ndarray/mmapstore"
	"spatialdue/internal/sdrbench"
	"spatialdue/internal/service"
)

func main() {
	var (
		dataset   = flag.String("dataset", "CESM/FLDS", "dataset to protect, as APP/NAME")
		method    = flag.String("method", "any", `recovery method name, or "any" for auto-tuning`)
		trials    = flag.Int("trials", 5, "number of injected DUEs")
		seed      = flag.Int64("seed", 1, "random seed")
		scaleFlag = flag.String("scale", "small", "dataset scale: tiny, small, medium")

		serve    = flag.Bool("serve", false, "run the resilient recovery service instead of one-shot trials")
		workers  = flag.Int("workers", 4, "serve: how many recoveries run at once (each on the goroutine that delivered it)")
		queue    = flag.Int("queue", 64, "serve: admission bound: recoveries admitted but not yet started; past it events are rejected and stay bank-latched")
		deadline = flag.Duration("deadline", 2*time.Second, "serve: per-recovery deadline (negative disables)")
		jpath    = flag.String("journal", "", "serve: crash-safe recovery journal path (empty disables)")
		events   = flag.Int("events", 200, "serve: number of MCA events to stream (0 = until signalled)")
		rate     = flag.Float64("rate", 100, "serve: event rate per second (0 = as fast as possible)")

		tuneCache = flag.Int("tune-cache", 8, "cache RECOVER_ANY tuning decisions per lock stripe, adaptively re-tuned in spatial hot spots (0 disables; the value is an enable switch — regions are always lock stripes)")

		listen       = flag.String("listen", "", "serve: run the networked HTTP recovery API on this address (e.g. :8080) instead of the synthetic storm")
		clusterCfg   = flag.String("cluster-config", "", "listen: cluster membership map JSON; joins the node named by -cluster-node to a recovery cluster with partner replication and failover")
		clusterNode  = flag.String("cluster-node", "", "listen: this node's name in -cluster-config")
		dataDir      = flag.String("data-dir", "", "listen/cluster: directory for journal, partner-replica, and mmap field-store files (default .spatialdue-<node> in cluster mode, .spatialdue otherwise)")
		fieldStore   = flag.String("field-store", "heap", `listen: field storage backing, "heap" (Go slices) or "mmap" (file-backed fields under -data-dir/fields; streamed upload/download, cold tenants page out, fields persist across restarts)`)
		heartbeat    = flag.Duration("heartbeat", 250*time.Millisecond, "cluster: partner liveness probe interval")
		hbBudget     = flag.Duration("heartbeat-budget", 2*time.Second, "cluster: unreachable time before the partner promotes itself over a dead owner")
		metricsAddr  = flag.String("metrics-addr", "", "serve: also serve /metrics and /readyz on this address")
		enableInject = flag.Bool("enable-inject", true, "listen: expose the fault-injection endpoint (disable for production shapes)")
		traceTop     = flag.Int("trace-top", 0, "dump the N slowest recovery traces (per-stage spans) on exit (0 disables)")

		predictorOn = flag.Bool("predictor", false, "listen: enable the predictive memory-health tier (CE ingestion, GET /v1/health, proactive scrub/checkpoint/row-offline actions)")
	)
	flag.Parse()

	scale, err := sdrbench.ParseScale(*scaleFlag)
	if err != nil {
		fatalf("%v", err)
	}

	parts := strings.SplitN(*dataset, "/", 2)
	if len(parts) != 2 {
		fatalf("-dataset wants APP/NAME, got %q", *dataset)
	}
	app, err := sdrbench.ParseApp(parts[0])
	if err != nil {
		fatalf("%v", err)
	}
	ds := sdrbench.Generate(app, parts[1], scale)

	policy := spatialdue.RecoverAny()
	if *method != "any" {
		m, err := spatialdue.ParseMethod(*method)
		if err != nil {
			fatalf("%v", err)
		}
		policy = spatialdue.RecoverWith(m)
	}

	eng := spatialdue.NewEngine(spatialdue.Options{
		Seed: *seed, TuneCacheBlock: *tuneCache,
	})

	if *serve && *listen != "" && *clusterCfg != "" {
		runCluster(eng, clusterOptions{
			addr: *listen, config: *clusterCfg, node: *clusterNode,
			dataDir: *dataDir, heartbeat: *heartbeat, budget: *hbBudget,
			inject: *enableInject, workers: *workers, queue: *queue,
			deadline: *deadline, seed: *seed,
			predictor: *predictorOn, fieldStore: *fieldStore,
		})
		dumpTraces(eng, *traceTop)
		return
	}

	if *serve && *listen != "" {
		runListen(eng, ds, policy, listenOptions{
			addr: *listen, metricsAddr: *metricsAddr, inject: *enableInject,
			workers: *workers, queue: *queue, deadline: *deadline,
			journal: *jpath, seed: *seed,
			predictor: *predictorOn, fieldStore: *fieldStore, dataDir: *dataDir,
		})
		dumpTraces(eng, *traceTop)
		return
	}

	alloc := eng.Protect(ds.Name, ds.Array, ds.DType, policy)

	if *serve {
		runServe(eng, alloc, ds, serveOptions{
			workers: *workers, queue: *queue, deadline: *deadline,
			journal: *jpath, events: *events,
			rate: *rate, seed: *seed, metricsAddr: *metricsAddr,
		})
		dumpTraces(eng, *traceTop)
		return
	}

	machine := spatialdue.NewMCA(4)
	eng.AttachMCA(machine)

	fmt.Printf("protected %s as %v\n\n", ds, alloc)

	inj := faultinject.New(*seed, ds.DType)
	for t := 0; t < *trials; t++ {
		trial := inj.PlanOne(ds.Array)
		faultinject.Apply(ds.Array, trial)
		addr := alloc.AddrOf(trial.Offset)

		// The memory controller discovers the fault on access and raises an
		// MCE; the attached engine recovers in place.
		machine.Plant(addr, trial.Bit)
		faulted, err := machine.Touch(addr, ds.DType.Size())
		if !faulted {
			fatalf("trial %d: fault not discovered", t)
		}
		if err != nil {
			fmt.Printf("trial %d: unrecoverable: %v\n", t, err)
			faultinject.Revert(ds.Array, trial)
			continue
		}
		recovered := ds.Array.AtOffset(trial.Offset)
		re := bitflip.RelErr(trial.Orig, recovered)
		fmt.Printf("trial %d: elem %v bit %2d: %.6g -> corrupted %.6g -> recovered %.6g (rel err %.4g%%)\n",
			t, ds.Array.Coords(trial.Offset), trial.Bit, trial.Orig, trial.Corrupted, recovered, 100*re)
		faultinject.Revert(ds.Array, trial)
	}

	st := eng.Stats()
	fmt.Printf("\nengine: %d recovered (%d auto-tuned), %d checkpoint-restart fallbacks\n",
		st.Recovered, st.Tuned, st.Fallbacks)
	dumpTraces(eng, *traceTop)
}

// dumpTraces prints the n slowest recovery traces with their per-stage
// spans — the CLI view of GET /v1/traces.
func dumpTraces(eng *spatialdue.Engine, n int) {
	if n <= 0 {
		return
	}
	top := eng.Tracer().Top()
	if len(top) > n {
		top = top[:n]
	}
	fmt.Printf("\nslowest %d of %d collected traces:\n", len(top), eng.Tracer().Finished())
	for i, sum := range top {
		status := "ok"
		if !sum.OK {
			status = "FAILED"
		}
		fmt.Printf("%2d. %s %s[%d] %s total %.3fms (%s)\n",
			i+1, sum.ID, sum.Alloc, sum.Offset, status, sum.TotalSeconds*1e3, sum.Detail)
		for _, sp := range sum.Spans {
			fmt.Printf("      %-18s +%.3fms %10.3fms\n",
				sp.Stage, sp.StartSeconds*1e3, sp.DurSeconds*1e3)
		}
	}
}

type serveOptions struct {
	workers, queue int
	deadline       time.Duration
	journal        string
	events         int
	rate           float64
	seed           int64
	metricsAddr    string
}

type listenOptions struct {
	addr, metricsAddr string
	inject            bool
	workers, queue    int
	deadline          time.Duration
	journal           string
	seed              int64
	predictor         bool
	fieldStore        string
	dataDir           string
}

type clusterOptions struct {
	addr, config, node string
	dataDir            string
	heartbeat, budget  time.Duration
	inject             bool
	workers, queue     int
	deadline           time.Duration
	seed               int64
	predictor          bool
	fieldStore         string
}

// runCluster joins the networked server to a recovery cluster: tenant
// ownership is consistent-hashed over the membership map, non-owned
// requests are 307-forwarded to their shard owner, and every field upload
// and journal record is replicated to the node's partner, which promotes
// itself and replays if this node dies. No demo dataset is pre-registered:
// a locally-registered allocation for a tenant another node owns would
// shadow cluster routing.
func runCluster(eng *spatialdue.Engine, opt clusterOptions) {
	if opt.node == "" {
		fatalf("-cluster-config requires -cluster-node")
	}
	m, err := cluster.LoadMap(opt.config)
	if err != nil {
		fatalf("%v", err)
	}
	self, ok := m.Node(opt.node)
	if !ok {
		fatalf("node %q not in cluster map [%s]", opt.node, m)
	}
	if self.Repl == "" {
		fatalf("node %q has no repl address in the cluster map", opt.node)
	}
	dataDir := opt.dataDir
	if dataDir == "" {
		dataDir = ".spatialdue-" + opt.node
	}

	node, err := cluster.New(eng, cluster.Config{
		Self: opt.node, Map: m, DataDir: dataDir,
		Heartbeat: opt.heartbeat, HeartbeatBudget: opt.budget,
		Server: httpapi.ServerConfig{
			Service: service.Config{
				Workers: opt.workers, QueueDepth: opt.queue, Deadline: opt.deadline,
				JournalSync: true, Seed: opt.seed,
			},
			EnableInject: opt.inject,
			Predictor:    opt.predictor,
			FieldStore:   opt.fieldStore,
			DataDir:      dataDir,
		},
	})
	if err != nil {
		fatalf("%v", err)
	}

	httpLn, err := net.Listen("tcp", opt.addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	replLn, err := net.Listen("tcp", self.Repl)
	if err != nil {
		fatalf("replication listen: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Printf("cluster node %q: API on http://%s, replication on %s, ring [%s]\n",
		opt.node, httpLn.Addr(), replLn.Addr(), m)
	if err := node.Serve(ctx, httpLn, replLn); err != nil {
		fatalf("serve: %v", err)
	}
	st := node.Server().Service().Stats()
	fmt.Printf("drained: %d submitted, %d accepted, %d rejected, %d recovered, %d failed, %d retries, %d replayed\n",
		st.Submitted, st.Accepted, st.Rejected, st.Recovered, st.Failed, st.Retries, st.Replayed)
}

// runListen runs the networked recovery server: the full HTTP/JSON API in
// front of the resilient recovery service, shut down gracefully on
// SIGTERM/SIGINT. The demo dataset is pre-registered in the default tenant
// so the curl examples in the README work against a fresh server.
func runListen(eng *spatialdue.Engine, ds *sdrbench.Dataset, policy spatialdue.Policy, opt listenOptions) {
	if opt.dataDir == "" {
		opt.dataDir = ".spatialdue"
	}
	// With -field-store=mmap the demo dataset moves into a file-backed
	// array: a fresh file is seeded from the generated data, while an
	// existing file from a previous run is remapped as-is (restart
	// semantics — journal replay then re-applies quarantine on top of the
	// persisted field, same contract as API-registered allocations).
	demoArr := ds.Array
	if opt.fieldStore == httpapi.FieldStoreMmap {
		path := httpapi.FieldPath(opt.dataDir, httpapi.DefaultTenant, ds.Name)
		_, statErr := os.Stat(path)
		fresh := os.IsNotExist(statErr)
		st, err := mmapstore.OpenOrCreate(path, ds.Array.Len())
		if err != nil {
			fatalf("%v", err)
		}
		demoArr, err = ndarray.NewWithBacking(st, ds.Array.Dims()...)
		if err != nil {
			fatalf("%v", err)
		}
		if fresh {
			copy(demoArr.Data(), ds.Array.Data())
			if err := demoArr.Seal(); err != nil {
				fatalf("%v", err)
			}
		}
	}
	// Register before NewServer: journal replay resolves intents against
	// already-registered (tenant, name) pairs.
	if _, err := eng.ProtectTenant(httpapi.DefaultTenant, ds.Name, demoArr, ds.DType, policy); err != nil {
		fatalf("%v", err)
	}
	srv, err := httpapi.NewServer(eng, httpapi.ServerConfig{
		Service: service.Config{
			Workers: opt.workers, QueueDepth: opt.queue, Deadline: opt.deadline,
			JournalPath: opt.journal, JournalSync: true,
			Seed: opt.seed,
		},
		EnableInject: opt.inject,
		Predictor:    opt.predictor,
		FieldStore:   opt.fieldStore,
		DataDir:      opt.dataDir,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if replayed := srv.Service().Stats().Replayed; replayed > 0 {
		fmt.Printf("journal: replaying %d unfinished recoveries from %s\n", replayed, opt.journal)
	}

	l, err := net.Listen("tcp", opt.addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	if opt.metricsAddr != "" {
		ml, err := net.Listen("tcp", opt.metricsAddr)
		if err != nil {
			fatalf("metrics listen: %v", err)
		}
		// Admin port: same handler, typically firewalled separately.
		go func() { _ = http.Serve(ml, srv) }()
		defer ml.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Printf("recovery API on http://%s (dataset %s pre-registered as %q in tenant %q, inject=%v, field-store=%s)\n",
		l.Addr(), ds, ds.Name, httpapi.DefaultTenant, opt.inject, opt.fieldStore)
	if opt.predictor {
		fmt.Printf("predictive health tier enabled (CE ingest via POST /v1/events kind=ce, report on GET /v1/health)\n")
	}
	if err := srv.Run(ctx, l); err != nil {
		fatalf("serve: %v", err)
	}

	st := srv.Service().Stats()
	fmt.Printf("drained: %d submitted, %d accepted, %d rejected, %d recovered, %d failed, %d retries, %d replayed\n",
		st.Submitted, st.Accepted, st.Rejected, st.Recovered, st.Failed, st.Retries, st.Replayed)
}

// runServe is the deployment shape of the resilient recovery service:
// intake → journal → engine, at most -workers recoveries at once, with
// graceful drain on SIGTERM/SIGINT. A stream of simulated MCA events
// (planted faults discovered by demand accesses) drives the pipeline; each
// recovers before its Touch returns.
func runServe(eng *spatialdue.Engine, alloc *spatialdue.Allocation, ds *sdrbench.Dataset, opt serveOptions) {
	svc, err := spatialdue.NewRecoveryService(eng, spatialdue.ServiceConfig{
		Workers: opt.workers, QueueDepth: opt.queue, Deadline: opt.deadline,
		JournalPath: opt.journal, JournalSync: true,
		Seed: opt.seed,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if replayed := svc.Stats().Replayed; replayed > 0 {
		fmt.Printf("journal: replaying %d unfinished recoveries from %s\n", replayed, opt.journal)
	}
	svc.Start()
	machine := spatialdue.NewMCA(4)
	svc.AttachMCA(machine)

	if opt.metricsAddr != "" {
		ml, err := net.Listen("tcp", opt.metricsAddr)
		if err != nil {
			fatalf("metrics listen: %v", err)
		}
		defer ml.Close()
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler(func(w io.Writer) error {
			mw := metrics.NewWriter(w)
			_ = eng.WriteMetrics(mw) // write errors are kept in mw
			_ = svc.WriteMetrics(mw)
			return mw.Err()
		}))
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
			breakers := map[string]string{}
			for name, state := range svc.BreakerStates() {
				breakers[name] = state.String()
			}
			st := svc.Stats()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(httpapi.ReadyReport{
				Ready: true, QueueDepth: svc.QueueLen(),
				Quarantined: eng.QuarantineCount(), Breakers: breakers,
				Recovered: st.Recovered, Failed: st.Failed, Replayed: st.Replayed,
			})
		})
		go func() { _ = http.Serve(ml, mux) }()
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
	}

	fmt.Printf("serving %s: %d workers, queue %d, deadline %v\n", ds, opt.workers, opt.queue, opt.deadline)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	// Event source: plant a latent fault, then touch the address — the
	// memory controller discovers it and raises the MCE into the service.
	inj := faultinject.New(opt.seed, ds.DType)
	var interval time.Duration
	if opt.rate > 0 {
		interval = time.Duration(float64(time.Second) / opt.rate)
	}
	sent, overloaded := 0, 0
	var stopReason string
stream:
	for opt.events == 0 || sent < opt.events {
		select {
		case sig := <-sigs:
			stopReason = fmt.Sprintf("signal %v", sig)
			break stream
		default:
		}
		trial := inj.PlanOne(ds.Array)
		faultinject.Apply(ds.Array, trial)
		addr := alloc.AddrOf(trial.Offset)
		machine.Plant(addr, trial.Bit)
		if _, err := machine.Touch(addr, ds.DType.Size()); err != nil {
			// Rejected delivery (admission bound reached): the bank keeps
			// the record latched and the service redelivers when capacity
			// frees up.
			overloaded++
		}
		sent++
		if interval > 0 {
			time.Sleep(interval)
		}
	}
	if stopReason == "" {
		stopReason = fmt.Sprintf("%d events sent", sent)
	}

	// Let backpressured events redeliver from their banks before intake
	// closes: rejected-at-burst is delivered-late, not lost.
	for settle := time.Now().Add(10 * time.Second); time.Now().Before(settle); {
		machine.RedeliverLatched()
		if len(machine.LatchedBanks()) == 0 && machine.PendingOverflow() == 0 && svc.QueueLen() == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	fmt.Printf("\ndraining (%s)...\n", stopReason)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		fatalf("drain: %v", err)
	}

	st := svc.Stats()
	fmt.Printf("service: %d submitted, %d accepted, %d rejected (%d raises saw backpressure), %d recovered, %d failed, %d retries, %d replayed\n",
		st.Submitted, st.Accepted, st.Rejected, overloaded, st.Recovered, st.Failed, st.Retries, st.Replayed)
	es := eng.Stats()
	fmt.Printf("engine:  %d recovered (%d auto-tuned), %d checkpoint-restart fallbacks\n",
		es.Recovered, es.Tuned, es.Fallbacks)
	fmt.Println()
	if err := svc.WriteMetrics(os.Stdout); err != nil {
		fatalf("metrics: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "duerecover: "+format+"\n", args...)
	os.Exit(1)
}
