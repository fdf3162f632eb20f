package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// metricDef is one catalogue entry. The catalogue is the single source of
// truth: BENCHMARK.json, the README tables, the emitted result lines and the
// tests are all checked against it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
	// BestWindow (end-to-end only) reports the best of the timed windows
	// instead of their median; see reduce.
	BestWindow bool
	Layer      string // per-layer only: the module the number belongs to
	// Def says what is measured; Moves (per-layer only) says which
	// end-to-end metric the number should move, and on which workload.
	Def, Moves string
}

// endToEnd are the metrics a user of the system would see, reported for
// every workload with --trace 0.
//
// Bounds come from the spread observed on the 2-core reference box (README
// "Run-to-run spread"). The box is shared: identical runs half an hour apart
// differed by 15-30% in every timing — latency, rate and CPU time alike, so
// it is the machine's speed that moves, not the scheduling. Timings therefore
// carry the widest bound the contract allows; counts and quality figures,
// which do not feel the machine's mood, carry bounds of a few percent.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "median of 5 set-ups: dataset generation, server/cluster start, register, upload, checkpoint — everything before the first request can be timed"},
	{Name: "recoveries_per_s", BestWindow: true, Unit: "1/s", Better: "higher", Bound: 0.25,
		Def: "recoveries completed and passing the correctness check per wall second (cells for lib_rowwipe); best of 5 windows"},
	{Name: "recover_p50_us", BestWindow: true, Unit: "us", Better: "lower", Bound: 0.25,
		Def: "median recovery latency — library: call duration; HTTP: request send to the outcome record's server timestamp; best of 5 windows"},
	{Name: "recover_p95_us", BestWindow: true, Unit: "us", Better: "lower", Bound: 0.25,
		Def: "95th-percentile recovery latency, same clock as recover_p50_us; best of 5 windows"},
	{Name: "cpu_us_per_recovery", BestWindow: true, Unit: "us", Better: "lower", Bound: 0.25,
		Def: "process user+system CPU (getrusage) over a window divided by its recoveries; best of 5 windows"},
	{Name: "allocs_per_recovery", Unit: "count", Better: "lower", Bound: 0.1,
		Def: "runtime.MemStats Mallocs delta over a window divided by its recoveries (includes the typed SDK); median of 5 windows"},
	{Name: "bytes_per_recovery", Unit: "B", Better: "lower", Bound: 0.05,
		Def: "runtime.MemStats TotalAlloc delta over a window divided by its recoveries; median of 5 windows"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25,
		Def: "the benchmark process's VmHWM when the run ends"},
	{Name: "within1_pct", Unit: "%", Better: "higher", Bound: 0.02,
		Def: "quality pass: share of reconstructions within 1% relative error of the pre-fault value (the paper's Figure 2 threshold)"},
	{Name: "within10_pct", Unit: "%", Better: "higher", Bound: 0.02,
		Def: "quality pass: share within 10% relative error (the paper's Figure 4 threshold)"},
	{Name: "local_recovery_pct", Unit: "%", Better: "higher", Bound: 0.02,
		Def: "quality pass: share repaired by spatial prediction (stage primary/tune/alternate) and not by checkpoint restore or exhaustion — the paper's DUE-to-DCE conversion"},
	{Name: "success_pct", Unit: "%", Better: "higher", Bound: 0.001,
		Def: "100 minus failed_pct: (errors + rejected + missing NDJSON result lines + ok=false outcomes + oracle mismatches + violated invariants) over attempted, all phases; 100 on a healthy run"},
}

// perLayer are the single-layer numbers of the traced run (--trace 1).
var perLayer = []metricDef{
	// predict
	{Layer: "predict", Name: "predict.kernel_ns", Unit: "ns", Better: "lower",
		Def: "one prediction kernel call on a prepared Env", Moves: "recover_p50_us on lib_fixed (barely: it is ~1% of the engine call)"},
	{Layer: "predict", Name: "predict.env_new_ns", Unit: "ns", Better: "lower",
		Def: "predict.NewEnv + mask/shared wiring + one kernel call, minus the kernel", Moves: "recover_p50_us, cpu_us_per_recovery on lib_fixed (the ROADMAP's 79% suspect); nothing on lib_any"},
	{Layer: "predict", Name: "predict.env_new_allocs", Unit: "count", Better: "lower",
		Def: "heap allocations of one NewEnv", Moves: "allocs_per_recovery on lib_fixed"},
	{Layer: "predict", Name: "predict.env_new_bytes", Unit: "B", Better: "lower",
		Def: "heap bytes of one NewEnv", Moves: "bytes_per_recovery on lib_fixed"},
	// autotune
	{Layer: "autotune", Name: "autotune.select_ns", Unit: "ns", Better: "lower",
		Def: "one uncached autotune.Select at the workload's sites", Moves: "recoveries_per_s on lib_any"},
	{Layer: "autotune", Name: "autotune.probes_per_select", Unit: "count", Better: "lower",
		Def: "probe predictions scored per Select (all methods)", Moves: "autotune.select_ns, hence lib_any"},
	{Layer: "autotune", Name: "autotune.cache_select_ns", Unit: "ns", Better: "lower",
		Def: "one autotune.Cache.Select served from the cache", Moves: "recoveries_per_s on http_storm"},
	{Layer: "autotune", Name: "autotune.cache_hit_pct", Unit: "%", Better: "higher",
		Def: "tune-cache hits (incl. coalesced) over selects, from Engine.TuneCacheCounters", Moves: "recoveries_per_s on http_storm; collapses on field_mixed after each upload"},
	// core
	{Layer: "core", Name: "core.recover_ns", Unit: "ns", Better: "lower",
		Def: "Engine.RecoverAddress at the workload's sites (ladder depth 3)", Moves: "recover_p50_us, cpu_us_per_recovery on lib_fixed"},
	{Layer: "core", Name: "core.recover_self_ns", Unit: "ns", Better: "lower",
		Def: "core.recover_ns minus the next-deeper layer (env+kernel, plus the tuner under RECOVER_ANY)", Moves: "recover_p50_us on lib_fixed"},
	{Layer: "core", Name: "core.recover_allocs", Unit: "count", Better: "lower",
		Def: "heap allocations of one RecoverAddress", Moves: "allocs_per_recovery on lib_fixed"},
	{Layer: "core", Name: "core.recover_bytes", Unit: "B", Better: "lower",
		Def: "heap bytes of one RecoverAddress", Moves: "bytes_per_recovery on lib_fixed"},
	{Layer: "core", Name: "core.batch16_member_ns", Unit: "ns", Better: "lower",
		Def: "Engine.RecoverBatch of 16 pre-quarantined offsets, per member", Moves: "recoveries_per_s on http_storm"},
	{Layer: "core", Name: "core.burst_cell_ns", Unit: "ns", Better: "lower",
		Def: "Engine.RecoverBurst of one 16-cell row wipe, per cell", Moves: "recoveries_per_s on lib_rowwipe"},
	{Layer: "core", Name: "core.quarantine_mark_ns", Unit: "ns", Better: "lower",
		Def: "Engine.MarkCorrupt + ClearCorrupt round trip", Moves: "cpu_us_per_recovery on lib_fixed, http_single"},
	{Layer: "core", Name: "core.field_updated_ms", Unit: "ms", Better: "lower",
		Def: "Engine.FieldUpdated on the workload's field (re-snapshot + cache drop)", Moves: "httpapi.upload_ms on field_mixed"},
	{Layer: "core", Name: "core.stripe_wait_us_per_recovery", Unit: "us", Better: "lower",
		Def: "Engine.StripeWait time over recoveries in the traced workload run", Moves: "recover_p95_us on http_storm, field_mixed"},
	{Layer: "core", Name: "core.stripe_acquisitions_per_recovery", Unit: "count", Better: "lower",
		Def: "stripe-lock acquisition spans per recovery", Moves: "core.batch16_member_ns; http_storm"},
	{Layer: "core", Name: "core.escalated_pct", Unit: "%", Better: "lower",
		Def: "recoveries that left the primary rung (entered StageTune), from Engine.Escalations", Moves: "recover_p95_us on lib_rowwipe"},
	{Layer: "core", Name: "core.restore_pct", Unit: "%", Better: "lower",
		Def: "recoveries that reached the checkpoint-restore rung", Moves: "local_recovery_pct on lib_rowwipe"},
	{Layer: "core", Name: "core.batch_mean_size", Unit: "count", Better: "higher",
		Def: "members per RecoverBatch call, from Engine.BatchStats", Moves: "recoveries_per_s on http_storm"},
	// spatial, trace, registry
	{Layer: "spatial", Name: "spatial.accumulate_ns", Unit: "ns", Better: "lower",
		Def: "one Analytics.Accumulate", Moves: "cpu_us_per_recovery on lib_fixed (paid once per recovery)"},
	{Layer: "spatial", Name: "spatial.report_us", Unit: "us", Better: "lower",
		Def: "one Engine.SpatialReport on the workload's field", Moves: "none end to end (operator query)"},
	{Layer: "trace", Name: "trace.span_cycle_ns", Unit: "ns", Better: "lower",
		Def: "pooled trace: get, observe 4 spans, finish, recycle", Moves: "cpu_us_per_recovery on lib_fixed"},
	{Layer: "registry", Name: "registry.lookup_ns", Unit: "ns", Better: "lower",
		Def: "Table.Lookup of an address inside the field", Moves: "cpu_us_per_recovery on lib_fixed, http_single"},
	{Layer: "registry", Name: "registry.verify_descriptor_ns", Unit: "ns", Better: "lower",
		Def: "Table.VerifyDescriptor (Reed-Solomon seal check)", Moves: "httpapi.sync_recover_us"},
	// mca
	{Layer: "mca", Name: "mca.raise_ns", Unit: "ns", Better: "lower",
		Def: "Machine.RaiseMemoryDUE into a no-op handler", Moves: "cpu_us_per_recovery on http_single"},
	{Layer: "mca", Name: "mca.latched_pct", Unit: "%", Better: "lower",
		Def: "events answered 'latched' over events admitted, from GET /metrics", Moves: "recover_p95_us on http_storm (latched events wait for redelivery)"},
	{Layer: "mca", Name: "mca.bank_overflows", Unit: "count", Better: "lower",
		Def: "spatialdue_mca_bank_overflows_total at the end of the traced run", Moves: "recover_p95_us on http_storm"},
	// service
	{Layer: "service", Name: "service.submit_to_outcome_us", Unit: "us", Better: "lower",
		Def: "Service.SubmitAddress to OnOutcome, no journal (ladder depth 4)", Moves: "recover_p50_us on http_single"},
	{Layer: "service", Name: "service.self_us", Unit: "us", Better: "lower",
		Def: "service.submit_to_outcome_us minus core.recover_ns", Moves: "recover_p50_us on http_single"},
	{Layer: "service", Name: "service.queue_wait_us", Unit: "us", Better: "lower",
		Def: "mean queue_wait stage from the server's stage histogram (GET /metrics)", Moves: "recover_p95_us on http_storm"},
	{Layer: "service", Name: "service.batched_pct", Unit: "%", Better: "higher",
		Def: "recoveries coalesced through RecoverBatch, from service.Stats", Moves: "recoveries_per_s on http_storm"},
	{Layer: "service", Name: "service.rejected_pct", Unit: "%", Better: "lower",
		Def: "submissions rejected with ErrOverloaded", Moves: "mca.latched_pct, hence http_storm"},
	{Layer: "service", Name: "service.retries", Unit: "count", Better: "lower",
		Def: "backoff retries during the traced run", Moves: "recover_p95_us everywhere"},
	// journal
	{Layer: "journal", Name: "journal.append_pair_us", Unit: "us", Better: "lower",
		Def: "Recovery.Begin + FinishValue, no fsync", Moves: "recover_p50_us on http_single, cluster_pair; nothing on lib_*"},
	{Layer: "journal", Name: "journal.append_pair_fsync_us", Unit: "us", Better: "lower",
		Def: "Recovery.Begin + FinishValue with fsync on every append", Moves: "nothing gated: the benchmark's flush policy is no fsync"},
	{Layer: "journal", Name: "journal.bytes_per_recovery", Unit: "B", Better: "lower",
		Def: "journal file growth per recovery at the journaled service depth", Moves: "cluster.replica_bytes_per_recovery; cluster_pair"},
	{Layer: "journal", Name: "service.journal_tax_us", Unit: "us", Better: "lower",
		Def: "journaled minus unjournaled service depth of the ladder", Moves: "recover_p50_us on http_single"},
	// httpapi (+ client)
	{Layer: "httpapi", Name: "httpapi.healthz_rtt_us", Unit: "us", Better: "lower",
		Def: "GET /healthz round trip on a warm connection — the transport floor", Moves: "recover_p50_us on every http workload"},
	{Layer: "httpapi", Name: "httpapi.ingest_p50_us", Unit: "us", Better: "lower",
		Def: "POST /v1/events request to response, median", Moves: "recover_p50_us on http_single"},
	{Layer: "httpapi", Name: "httpapi.ingest_p99_us", Unit: "us", Better: "lower",
		Def: "POST /v1/events request to response, 99th percentile", Moves: "recover_p95_us on http_single"},
	{Layer: "httpapi", Name: "httpapi.outcomes_poll_us", Unit: "us", Better: "lower",
		Def: "one GET /v1/outcomes poll", Moves: "recoveries_per_s, cpu_us_per_recovery on http_single"},
	{Layer: "httpapi", Name: "httpapi.sync_recover_us", Unit: "us", Better: "lower",
		Def: "POST /v1/allocations/{name}/recover, synchronous", Moves: "none gated (alternative entry point)"},
	{Layer: "httpapi", Name: "httpapi.stream_line_us", Unit: "us", Better: "lower",
		Def: "one 64-line POST /v1/events/stream, per line", Moves: "cpu_us_per_recovery on http_storm"},
	{Layer: "httpapi", Name: "httpapi.wire_bytes_per_event", Unit: "B", Better: "lower",
		Def: "request body bytes per reported DUE on the workload's ingest path", Moves: "bytes_per_recovery on http_single vs http_storm"},
	{Layer: "httpapi", Name: "httpapi.recover_us", Unit: "us", Better: "lower",
		Def: "ingest to outcome over loopback HTTP, one client (ladder depth 6)", Moves: "recover_p50_us on http_single"},
	{Layer: "httpapi", Name: "httpapi.self_us", Unit: "us", Better: "lower",
		Def: "httpapi.recover_us minus the journaled service depth", Moves: "recover_p50_us, cpu_us_per_recovery on http_single"},
	{Layer: "httpapi", Name: "httpapi.recover_p99_us", Unit: "us", Better: "lower",
		Def: "99th-percentile recovery latency of the traced workload run (recorded, not gated)", Moves: "explained by runtime.gc_pause_ms, service.queue_wait_us"},
	{Layer: "httpapi", Name: "httpapi.recover_p999_us", Unit: "us", Better: "lower",
		Def: "99.9th-percentile recovery latency of the traced workload run (recorded, not gated)", Moves: "as recover_p99_us"},
	{Layer: "httpapi", Name: "httpapi.upload_ms", Unit: "ms", Better: "lower",
		Def: "one full-field PUT (8 MiB)", Moves: "httpapi.upload_mb_per_s on field_mixed; setup_s everywhere"},
	{Layer: "httpapi", Name: "httpapi.download_ms", Unit: "ms", Better: "lower",
		Def: "one full-field GET (8 MiB)", Moves: "httpapi.download_mb_per_s on field_mixed"},
	{Layer: "httpapi", Name: "httpapi.upload_mb_per_s", Unit: "MiB/s", Better: "higher",
		Def: "upload throughput while DUEs run on the same field (field_mixed); idle server elsewhere", Moves: "field_mixed: a recovery gain bought at upload's expense shows here"},
	{Layer: "httpapi", Name: "httpapi.download_mb_per_s", Unit: "MiB/s", Better: "higher",
		Def: "download throughput, as above", Moves: "field_mixed"},
	// cluster
	{Layer: "cluster", Name: "cluster.recover_us", Unit: "us", Better: "lower",
		Def: "ingest to outcome on a two-node cluster, entering at the owner (ladder depth 7)", Moves: "recover_p50_us on cluster_pair"},
	{Layer: "cluster", Name: "cluster.repl_tax_us", Unit: "us", Better: "lower",
		Def: "cluster.recover_us minus httpapi.recover_us: what partner replication adds", Moves: "recover_p50_us, cpu_us_per_recovery on cluster_pair only"},
	{Layer: "cluster", Name: "cluster.forward_rtt_us", Unit: "us", Better: "lower",
		Def: "entering at the non-owner (307 forward) minus entering at the owner", Moves: "recover_p95_us on cluster_pair"},
	{Layer: "cluster", Name: "cluster.repl_lag_records_max", Unit: "count", Better: "lower",
		Def: "largest replication_lag_records seen polling GET /v1/cluster/status", Moves: "cluster.repl_catchup_ms"},
	{Layer: "cluster", Name: "cluster.repl_catchup_ms", Unit: "ms", Better: "lower",
		Def: "time from the last outcome until the partner acknowledged every record", Moves: "none gated (durability window)"},
	{Layer: "cluster", Name: "cluster.replica_bytes_per_recovery", Unit: "B", Better: "lower",
		Def: "replica journal growth on the partner per recovery", Moves: "bytes_per_recovery on cluster_pair"},
	// storage, checkpoints, datasets
	{Layer: "ndarray/mmapstore", Name: "mmapstore.open_ms", Unit: "ms", Better: "lower",
		Def: "mmapstore.OpenOrCreate + first touch of every page of an 8 MiB field", Moves: "setup_s on field_mixed"},
	{Layer: "ndarray/mmapstore", Name: "mmapstore.seal_ms", Unit: "ms", Better: "lower",
		Def: "Store.Seal (msync) after dirtying the field", Moves: "httpapi.upload_ms on field_mixed"},
	{Layer: "fti", Name: "fti.checkpoint_l1_ms", Unit: "ms", Better: "lower",
		Def: "World.Checkpoint(L1) of the workload's field", Moves: "setup_s on lib_rowwipe"},
	{Layer: "fti", Name: "fti.restore_element_us", Unit: "us", Better: "lower",
		Def: "World.RestoreElement of one cell", Moves: "recover_p95_us on lib_rowwipe"},
	{Layer: "sdrbench", Name: "sdrbench.generate_ms", Unit: "ms", Better: "lower",
		Def: "generating the workload's dataset", Moves: "setup_s everywhere"},
	// runtime
	{Layer: "runtime", Name: "runtime.gc_cycles", Unit: "count", Better: "lower",
		Def: "GC cycles during the traced workload run", Moves: "explains recover_p95_us wherever allocs are high"},
	{Layer: "runtime", Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower",
		Def: "total GC stop-the-world pause during the traced workload run", Moves: "as gc_cycles"},
	// the benchmark's own tracing
	{Layer: "bench", Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower",
		Def: "untraced over traced recoveries_per_s of the same instance, minus one", Moves: "none: says how far the traced numbers are off"},
	{Layer: "bench", Name: "bench.spans", Unit: "count", Better: "higher",
		Def: "spans recorded in the traced run", Moves: "none"},
	{Layer: "bench", Name: "bench.workload_p50_us", Unit: "us", Better: "lower",
		Def: "recover_p50_us of the traced workload run itself", Moves: "none: the figure the ladder is held against"},
	{Layer: "bench", Name: "bench.ladder_p50_us", Unit: "us", Better: "lower",
		Def: "the ladder's deepest applicable depth replayed at the workload's client count: the sum of the layers' self times plus client contention", Moves: "none: tracks recover_p50_us"},
	{Layer: "bench", Name: "bench.tax_explained_pct", Unit: "%", Better: "higher",
		Def: "bench.ladder_p50_us over bench.workload_p50_us", Moves: "none: the acceptance check that the per-layer tax adds up"},
}

// workloadDef names one workload and how to set it up.
type workloadDef struct {
	Name  string
	Why   string // one line for BENCHMARK.json
	Runs  string // what it runs (README)
	setup func(*runCtx) (instance, error)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateCatalogue enforces the benchmark contract's limits on names,
// units, counts and bounds.
func validateCatalogue(ws []workloadDef, e2e, layers []metricDef) error {
	if n := len(ws); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(e2e); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(layers); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q: want [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range ws {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), e2e...), layers...) {
		if err := use(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range e2e {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	return nil
}

// runSeconds is the timed-phase length BENCHMARK.json asks the driver for:
// five 2-second windows. With set-up, quality pass and warm-up a run takes
// 11-17 s, so the driver's 4 + 22 x 7 runs fit its 3420 s with room for two
// builds.
const runSeconds = 10

// manifest renders BENCHMARK.json from the catalogue, so the two cannot
// drift apart (`go run ./bench -manifest > BENCHMARK.json`; a test compares
// the committed file with the catalogue).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// markdownTables renders the catalogue as the README's tables, keyed by the
// section they belong to (`go run ./bench -tables`; a test checks that the
// README names every workload and metric).
func markdownTables() map[string]string {
	var w, e, l strings.Builder
	for _, d := range workloads {
		fmt.Fprintf(&w, "| `%s` | %s | %s |\n", d.Name, d.Runs, d.Why)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(&e, "| `%s` | %s · %s | %s | %g %% |\n", m.Name, m.Unit, m.Better, m.Def, 100*m.Bound)
	}
	for _, m := range perLayer {
		fmt.Fprintf(&l, "| `%s` | `%s` | %s | %s | %s |\n", m.Layer, m.Name, m.Unit, m.Def, m.Moves)
	}
	return map[string]string{"WORKLOADS": w.String(), "E2E": e.String(), "LAYERS": l.String()}
}
