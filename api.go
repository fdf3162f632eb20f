// Package spatialdue recovers detectable uncorrectable errors (DUEs) and
// silent data corruption (SDC) in HPC data arrays by spatial data
// prediction, reproducing Guernsey et al., "Recovering Detectable
// Uncorrectable Errors via Spatial Data Prediction" (SC-W / FTXS 2023).
//
// Instead of rolling an application back to a checkpoint when one array
// element is lost, the library reconstructs the element from its spatial
// neighbors, converting a DUE into a detected-and-corrected error at
// microsecond-to-millisecond cost. Ten reconstruction methods are provided
// (Section 3.4 of the paper) together with a local auto-tuner that picks
// the best method for the data around the corruption.
//
// # Quick start
//
//	grid, _ := spatialdue.NewArray(512, 512)
//	// ... fill grid with simulation state ...
//
//	eng := spatialdue.NewEngine(spatialdue.Options{})
//	alloc := eng.Protect("temperature", grid, spatialdue.Float32,
//	    spatialdue.RecoverWith(spatialdue.MethodLorenzo1))
//
//	// A machine-check exception reports a lost physical address:
//	outcome, err := eng.RecoverAddress(alloc.AddrOf(grid.Offset(17, 211)))
//	if err != nil {
//	    // not recoverable locally: fall back to checkpoint-restart
//	}
//	_ = outcome // outcome.New holds the reconstructed value
//
// See the examples/ directory for complete programs: a protected Jacobi
// heat solver, MCA-driven recovery, and auto-tuning with domain knowledge.
//
// The subsystems — the prediction methods, the allocation registry, the
// simulated machine-check architecture, the SDC detectors, the FTI-style
// multi-level checkpoint library, and the fault-injection campaign driver
// that regenerates the paper's figures — live in internal/ packages; this
// package re-exports the surface a downstream application needs.
package spatialdue

import (
	"net/http"

	"spatialdue/internal/autotune"
	"spatialdue/internal/bitflip"
	"spatialdue/internal/core"
	"spatialdue/internal/detect"
	"spatialdue/internal/fti"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/mca"
	"spatialdue/internal/metrics"
	"spatialdue/internal/ndarray"
	"spatialdue/internal/predict"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// Array is a dense, row-major, N-dimensional float64 array — the container
// every API in this library operates on.
type Array = ndarray.Array

// NewArray allocates a zero-filled array with the given dimensions.
func NewArray(dims ...int) (*Array, error) { return ndarray.TryNew(dims...) }

// FromData wraps an existing row-major slice as an array (no copy).
func FromData(data []float64, dims ...int) (*Array, error) {
	return ndarray.FromData(data, dims...)
}

// DType identifies the element representation of the protected buffer
// (bit flips happen in this representation).
type DType = bitflip.DType

// Element representations.
const (
	Float32 = bitflip.Float32
	Float64 = bitflip.Float64
)

// Method enumerates the reconstruction methods of Section 3.4.
type Method = predict.Method

// The reconstruction methods, in the paper's figure order.
const (
	MethodZero        = predict.MethodZero
	MethodRandom      = predict.MethodRandom
	MethodAverage     = predict.MethodAverage
	MethodPreceding   = predict.MethodPreceding
	MethodLinear      = predict.MethodLinear
	MethodQuadratic   = predict.MethodQuadratic
	MethodLorenzo1    = predict.MethodLorenzo1
	MethodLinReg      = predict.MethodLinReg
	MethodLocalLinReg = predict.MethodLocalLinReg
	MethodLagrange    = predict.MethodLagrange
	// Extension methods (deeper Lorenzo stencils, as in SZ).
	MethodLorenzo2 = predict.MethodLorenzo2
	MethodLorenzo3 = predict.MethodLorenzo3
	MethodLorenzo4 = predict.MethodLorenzo4
)

// Methods returns the paper's ten headline methods in figure order.
func Methods() []Method { return predict.HeadlineMethods() }

// ParseMethod resolves a method by its figure name, e.g. "Lorenzo 1-Layer".
func ParseMethod(name string) (Method, error) { return predict.ParseMethod(name) }

// Policy selects how a protected allocation recovers corrupted elements.
type Policy = registry.Policy

// RecoverAny selects RECOVER_ANY: auto-tune locally at recovery time.
func RecoverAny() Policy { return registry.RecoverAny() }

// RecoverWith fixes the recovery method from domain knowledge.
func RecoverWith(m Method) Policy { return registry.RecoverWith(m) }

// ValueRange bounds the physically plausible values of an allocation; see
// Policy.WithRange. Reconstructions outside the range are rejected by the
// recovery supervisor and escalate instead of entering application state.
type ValueRange = registry.ValueRange

// Allocation describes one protected memory region.
type Allocation = registry.Allocation

// Options configures an Engine; the zero value takes the paper's defaults
// (auto-tune with K=3 at 1% tolerance, Average provisional patching).
type Options = core.Options

// Engine is the recovery engine: registry lookup, method dispatch,
// auto-tuning, in-place reconstruction.
type Engine = core.Engine

// Outcome describes a completed localized recovery.
type Outcome = core.Outcome

// Stage identifies a rung of the recovery escalation ladder: primary →
// tune → alternate → restore → exhausted.
type Stage = core.Stage

// The escalation-ladder rungs.
const (
	StagePrimary   = core.StagePrimary
	StageTune      = core.StageTune
	StageAlternate = core.StageAlternate
	StageRestore   = core.StageRestore
	StageExhausted = core.StageExhausted
)

// StageEvent describes one ladder-stage entry during a recovery; see
// Options.StageHook.
type StageEvent = core.StageEvent

// NewEngine creates a recovery engine with its own allocation registry.
func NewEngine(opts Options) *Engine { return core.NewEngine(opts) }

// ErrCheckpointRestartRequired signals that localized recovery was not
// possible and the application must roll back to a checkpoint.
var ErrCheckpointRestartRequired = core.ErrCheckpointRestartRequired

// Predict reconstructs the element at idx of arr with the given method,
// without writing anything — the stateless core of the library. The value
// stored at idx is never read.
func Predict(arr *Array, m Method, seed int64, idx ...int) (float64, error) {
	env := predict.NewEnv(arr, seed)
	return predict.New(m).Predict(env, idx)
}

// Autotune runs the paper's local auto-tuner (Section 4.4) around idx and
// returns the locally optimal method. k is the neighborhood radius (the
// paper uses 3) and tol the target relative error (the paper uses 0.01).
func Autotune(arr *Array, seed int64, k int, tol float64, idx ...int) (Method, error) {
	env := predict.NewEnv(arr, seed)
	res, err := autotune.Select(env, idx, autotune.Config{K: k, Tolerance: tol})
	if err != nil {
		return 0, err
	}
	return res.Best, nil
}

// MCA is the simulated machine-check architecture (Section 3.1's first
// detection path).
type MCA = mca.Machine

// MCEvent is a delivered machine-check event.
type MCEvent = mca.Event

// NewMCA creates a simulated machine-check architecture with n report
// banks. Attach an engine with Engine.AttachMCA to recover DUEs in place.
func NewMCA(banks int) *MCA { return mca.New(banks) }

// Detector is a point-wise data-analytic SDC detector (Section 3.1's
// second detection path).
type Detector = detect.Detector

// NewSpatialDetector flags elements deviating from their neighbor mean by
// more than theta times the dataset's typical neighbor difference.
func NewSpatialDetector(theta float64) Detector { return &detect.SpatialDetector{Theta: theta} }

// NewTemporalDetector is an AID-style adaptive temporal detector; feed it
// one snapshot per time step via Observe.
func NewTemporalDetector(lambda float64) *detect.TemporalDetector {
	return detect.NewTemporal(lambda)
}

// CheckpointWorld is the FTI-style multi-level checkpoint library with the
// paper's forward-recovery extension (Section 3.2).
type CheckpointWorld = fti.World

// CheckpointLevel selects L1 (local) through L4 (parallel file system).
type CheckpointLevel = fti.Level

// Checkpoint levels.
const (
	CheckpointL1 = fti.L1
	CheckpointL2 = fti.L2
	CheckpointL3 = fti.L3
	CheckpointL4 = fti.L4
)

// NewCheckpointWorld creates a simulated n-rank job whose checkpoint
// storage lives under dir.
func NewCheckpointWorld(dir string, n int) (*CheckpointWorld, error) {
	return fti.NewWorld(dir, n)
}

// CheckpointPolicy is the per-dataset recovery policy recorded by the
// checkpoint library's Protect call (the paper's FTI_Protect extension).
type CheckpointPolicy = fti.RecoveryPolicy

// CheckpointRecoverAny is the RECOVER_ANY checkpoint policy.
func CheckpointRecoverAny() CheckpointPolicy { return CheckpointPolicy{Any: true} }

// CheckpointRecoverWith fixes the checkpoint-library recovery method.
func CheckpointRecoverWith(m Method) CheckpointPolicy { return CheckpointPolicy{Method: m} }

// AuditEntry is one recorded recovery event; see Engine.Audit and
// Engine.WriteMetrics for observability.
type AuditEntry = core.AuditEntry

// BurstOutcome describes a completed multi-element (cache-line / DRAM
// burst) recovery — an extension beyond the paper's single-element scope;
// see Engine.RecoverBurst.
type BurstOutcome = core.BurstOutcome

// MetricsHandler serves an engine's recovery counters in the Prometheus
// text exposition format — mount it on /metrics to observe a protected
// application's recovery activity.
func MetricsHandler(e *Engine) http.Handler { return metrics.Handler(e.WriteMetrics) }

// RecoveryService is the resilient long-running recovery front end: a
// bounded worker pool with admission control, per-recovery deadlines, retry
// with jittered backoff, per-allocation circuit breakers, and an optional
// crash-safe write-ahead journal that replays unfinished recoveries after a
// restart. See cmd/duerecover -serve for a complete deployment shape.
type RecoveryService = service.Service

// ServiceConfig parameterizes a RecoveryService.
type ServiceConfig = service.Config

// ServiceResult reports one finished recovery (ServiceConfig.OnOutcome).
type ServiceResult = service.Result

// ServiceStats are a RecoveryService's lifetime counters.
type ServiceStats = service.Stats

// BreakerState is the observable state of an allocation's circuit breaker.
type BreakerState = service.BreakerState

// Circuit breaker states.
const (
	BreakerClosed   = service.BreakerClosed
	BreakerOpen     = service.BreakerOpen
	BreakerHalfOpen = service.BreakerHalfOpen
)

// NewRecoveryService creates a recovery service over an engine. With
// ServiceConfig.JournalPath set, unfinished intents from a previous run are
// re-quarantined and replayed; register allocations (under stable names)
// before calling. Call Start to launch the pool and Drain/Close to stop.
func NewRecoveryService(e *Engine, cfg ServiceConfig) (*RecoveryService, error) {
	return service.New(e, cfg)
}

// ErrOverloaded rejects submissions past the service's admission bound; an
// MCA delivering the event keeps it latched for redelivery.
var ErrOverloaded = service.ErrOverloaded

// ErrCircuitOpen (wrapping ErrCheckpointRestartRequired) rejects
// submissions for an allocation degraded by its circuit breaker.
var ErrCircuitOpen = service.ErrCircuitOpen

// ErrServiceStopped rejects submissions after Drain/Close.
var ErrServiceStopped = service.ErrStopped

// ErrRecoveryAbandoned marks a recovery abandoned at its context deadline;
// the element stays quarantined and the service retries with backoff.
var ErrRecoveryAbandoned = core.ErrRecoveryAbandoned

// ErrVerifyFailed marks a reconstruction rejected by plausibility
// verification (non-finite, outside the registered ValueRange, or wildly
// off the neighbor spread); the escalation ladder tries the next rung.
var ErrVerifyFailed = core.ErrVerifyFailed

// HTTPClient is the typed client SDK for the networked recovery server
// (cmd/duerecover -serve -listen). Error responses map back to the package
// sentinels: errors.Is(err, ErrOverloaded) works across the wire exactly as
// in-process.
type HTTPClient = client.Client

// HTTPClientConfig parameterizes an HTTPClient.
type HTTPClientConfig = client.Config

// NewHTTPClient returns a client for the recovery server at
// cfg.BaseURL, scoped to cfg.Tenant.
func NewHTTPClient(cfg HTTPClientConfig) *HTTPClient { return client.New(cfg) }

// HTTPError is a decoded server error (status, machine-readable code, and
// the Latched backpressure marker).
type HTTPError = httpapi.Error
