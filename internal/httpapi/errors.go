package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"spatialdue/internal/core"
	"spatialdue/internal/jsonwire"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// Machine-readable error codes. Every error response carries exactly one,
// and each maps to a fixed HTTP status and back to the originating Go
// sentinel(s), so a remote caller and an in-process caller see the same
// errors.Is behavior.
const (
	CodeBadRequest        = "bad_request"
	CodeNotRegistered     = "not_registered"
	CodeNameTaken         = "name_taken"
	CodeBadDims           = "bad_dims"
	CodeOverloaded        = "overloaded"
	CodeVerifyFailed      = "verify_failed"
	CodeMetadataCorrupt   = "metadata_corrupt"
	CodeAbandoned         = "recovery_abandoned"
	CodeCircuitOpen       = "circuit_open"
	CodeCheckpointRestart = "checkpoint_restart_required"
	CodeDraining          = "draining"
	CodeRecoveriesBusy    = "recoveries_in_flight"
	CodeForwardLoop       = "forward_loop"
	CodePayloadTooLarge   = "payload_too_large"
	CodeInternal          = "internal"
)

var codes = []string{CodeBadRequest, CodeNotRegistered, CodeNameTaken, CodeBadDims,
	CodeOverloaded, CodeVerifyFailed, CodeMetadataCorrupt, CodeAbandoned, CodeCircuitOpen,
	CodeCheckpointRestart, CodeDraining, CodeRecoveriesBusy, CodeForwardLoop,
	CodePayloadTooLarge, CodeInternal}

// ErrForwardLoop is returned when a shard-forwarding redirect chain exceeds
// MaxForwardHops — a cluster map disagreement (two nodes each believing the
// other owns the tenant) that would otherwise bounce the request forever.
// Mapped to 508 Loop Detected on the wire; the SDK's redirect policy raises
// it client-side as well.
var ErrForwardLoop = errors.New("httpapi: shard-forwarding loop")

// ErrorDetail is the JSON error payload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Latched marks an event rejection whose record remains bank-latched
	// for server-side redelivery: backpressure, not loss. Do not resend.
	Latched bool `json:"latched,omitempty"`
}

// appendJSON appends d as encoding/json writes it with HTML escaping on or
// off.
func (d *ErrorDetail) appendJSON(dst []byte, escapeHTML bool) []byte {
	dst = jsonwire.AppendString(append(dst, `{"code":`...), d.Code, escapeHTML)
	dst = jsonwire.AppendString(append(dst, `,"message":`...), d.Message, escapeHTML)
	if d.Latched {
		dst = append(dst, `,"latched":true`...)
	}
	return append(dst, '}')
}

var errorDetailKeys = []string{"code", "message", "latched"}

// decodeFast decodes the detail at the head of b in the shape appendJSON
// writes into d, returning what follows it.
func (d *ErrorDetail) decodeFast(b []byte) ([]byte, bool) {
	return jsonwire.Members(b, errorDetailKeys, func(k int, b []byte) (rest []byte, ok bool) {
		switch errorDetailKeys[k] {
		case "code":
			d.Code, rest, ok = jsonwire.StringValue(b, codes...)
		case "message":
			d.Message, rest, ok = jsonwire.StringValue(b)
		case "latched":
			d.Latched, rest, ok = jsonwire.Bool(b)
		}
		return rest, ok
	})
}

// ErrorBody is the JSON error envelope.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// mapping ties one code to its HTTP status and Go sentinels. Sentinels[0]
// is the classifying sentinel (CodeFor matches against it, most specific
// first); the rest preserve wrapped-sentinel fidelity across the wire
// (ErrCircuitOpen wraps ErrCheckpointRestartRequired in-process, so its
// decoded client error matches both).
type mapping struct {
	code       string
	status     int
	retryAfter bool
	sentinels  []error
}

// mappings is the error table, ordered most-specific first: CodeFor walks
// it and the first errors.Is hit wins, so wrappers (circuit_open wraps
// checkpoint_restart_required, verify_failed reaches the caller inside a
// ladder-exhausted wrap) classify by their most informative cause.
var mappings = []mapping{
	{CodeForwardLoop, http.StatusLoopDetected, false, []error{ErrForwardLoop}},
	{CodeOverloaded, http.StatusTooManyRequests, true, []error{service.ErrOverloaded}},
	{CodeDraining, http.StatusServiceUnavailable, false, []error{service.ErrStopped}},
	{CodeCircuitOpen, http.StatusServiceUnavailable, true, []error{service.ErrCircuitOpen, core.ErrCheckpointRestartRequired}},
	{CodeNameTaken, http.StatusConflict, false, []error{registry.ErrNameTaken}},
	{CodeRecoveriesBusy, http.StatusConflict, true, []error{core.ErrRecoveriesInFlight}},
	{CodeBadDims, http.StatusBadRequest, false, []error{registry.ErrDims}},
	// Before not_registered and checkpoint_restart: a corrupt-beyond-parity
	// descriptor refusal wraps ErrCheckpointRestartRequired on the recovery
	// path, but the caller must see that the metadata — not the data — is
	// the problem (422, escalate to checkpoint-restore; retrying is useless).
	{CodeMetadataCorrupt, http.StatusUnprocessableEntity, false, []error{registry.ErrMetadataCorrupt, core.ErrCheckpointRestartRequired}},
	{CodeNotRegistered, http.StatusNotFound, false, []error{registry.ErrNotRegistered}},
	{CodeAbandoned, http.StatusGatewayTimeout, false, []error{core.ErrRecoveryAbandoned}},
	{CodeVerifyFailed, http.StatusUnprocessableEntity, false, []error{core.ErrVerifyFailed, core.ErrCheckpointRestartRequired}},
	{CodeCheckpointRestart, http.StatusServiceUnavailable, false, []error{core.ErrCheckpointRestartRequired}},
}

// CodeFor classifies an error into its wire code.
func CodeFor(err error) string {
	for _, m := range mappings {
		if errors.Is(err, m.sentinels[0]) {
			return m.code
		}
	}
	return CodeInternal
}

// StatusFor returns the HTTP status for a code, and whether responses
// should carry a Retry-After header.
func StatusFor(code string) (status int, retryAfter bool) {
	for _, m := range mappings {
		if m.code == code {
			return m.status, m.retryAfter
		}
	}
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest, false
	case CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge, false
	default:
		return http.StatusInternalServerError, false
	}
}

// SentinelsFor returns the Go sentinels a decoded error of this code must
// match via errors.Is (nil for codes with no sentinel, e.g. bad_request).
func SentinelsFor(code string) []error {
	for _, m := range mappings {
		if m.code == code {
			return m.sentinels
		}
	}
	return nil
}

// Error is a server error decoded by the client SDK. errors.Is matches the
// sentinel(s) the server-side error wrapped, so remote callers branch on
// service.ErrOverloaded, registry.ErrNotRegistered, etc. exactly as local
// callers do.
type Error struct {
	// Status is the HTTP status the server responded with.
	Status int
	// Code is the machine-readable reason (the Code* constants).
	Code string
	// Message is the human-readable server message.
	Message string
	// Latched marks backpressured-but-bank-latched event rejections.
	Latched bool
	// RetryAfter is the server's Retry-After hint (zero when absent).
	RetryAfter time.Duration
	// TraceID is the recovery's trace ID when the error response carried
	// one (latched event rejections do: the recovery proceeds server-side).
	TraceID string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("httpapi: %d %s: %s", e.Status, e.Code, e.Message)
}

// Is reports whether the decoded error corresponds to target's sentinel.
func (e *Error) Is(target error) bool {
	for _, s := range SentinelsFor(e.Code) {
		if target == s {
			return true
		}
	}
	return false
}
