package httpapi

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"spatialdue/internal/core"
	"spatialdue/internal/registry"
	"spatialdue/internal/service"
)

// TestErrorMappingTable drives every sentinel through the full wire cycle:
// server-side classification (CodeFor → status + code) and client-side
// reconstruction (Error.Is must match the original sentinel), and checks
// that no two conditions collapse onto the same (status, code) pair.
func TestErrorMappingTable(t *testing.T) {
	cases := []struct {
		name       string
		err        error // as produced by the pipeline (wrapped like production)
		wantCode   string
		wantStatus int
		wantRetry  bool
		// every sentinel the decoded client error must satisfy via errors.Is
		wantIs []error
	}{
		{
			name:       "overloaded",
			err:        fmt.Errorf("submit: %w", service.ErrOverloaded),
			wantCode:   CodeOverloaded,
			wantStatus: http.StatusTooManyRequests,
			wantRetry:  true,
			wantIs:     []error{service.ErrOverloaded},
		},
		{
			name: "circuit open",
			err: fmt.Errorf("%w: allocation t/a degraded: %w",
				service.ErrCircuitOpen, core.ErrCheckpointRestartRequired),
			wantCode:   CodeCircuitOpen,
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  true,
			wantIs:     []error{service.ErrCircuitOpen, core.ErrCheckpointRestartRequired},
		},
		{
			name:       "stopped while draining",
			err:        fmt.Errorf("%w: draining", service.ErrStopped),
			wantCode:   CodeDraining,
			wantStatus: http.StatusServiceUnavailable,
			wantIs:     []error{service.ErrStopped},
		},
		{
			name:       "not registered",
			err:        fmt.Errorf("%w: 0xdead", registry.ErrNotRegistered),
			wantCode:   CodeNotRegistered,
			wantStatus: http.StatusNotFound,
			wantIs:     []error{registry.ErrNotRegistered},
		},
		{
			name:       "name taken",
			err:        fmt.Errorf("%w: %q", registry.ErrNameTaken, "field"),
			wantCode:   CodeNameTaken,
			wantStatus: http.StatusConflict,
			wantIs:     []error{registry.ErrNameTaken},
		},
		{
			name:       "recovery abandoned",
			err:        fmt.Errorf("%w: deadline", core.ErrRecoveryAbandoned),
			wantCode:   CodeAbandoned,
			wantStatus: http.StatusGatewayTimeout,
			wantIs:     []error{core.ErrRecoveryAbandoned},
		},
		{
			name: "verification failure escalated to exhaustion",
			// the ladder-exhausted wrap produced by escalate.go: the
			// checkpoint-restart sentinel wrapping the verify failure
			err: fmt.Errorf("%w: ladder exhausted: %w",
				core.ErrCheckpointRestartRequired,
				fmt.Errorf("stage: %w", core.ErrVerifyFailed)),
			wantCode:   CodeVerifyFailed,
			wantStatus: http.StatusUnprocessableEntity,
			wantIs:     []error{core.ErrVerifyFailed, core.ErrCheckpointRestartRequired},
		},
		{
			name:       "checkpoint restart required",
			err:        fmt.Errorf("%w: no restore source", core.ErrCheckpointRestartRequired),
			wantCode:   CodeCheckpointRestart,
			wantStatus: http.StatusServiceUnavailable,
			wantIs:     []error{core.ErrCheckpointRestartRequired},
		},
		{
			name:       "unclassified",
			err:        errors.New("disk on fire"),
			wantCode:   CodeInternal,
			wantStatus: http.StatusInternalServerError,
		},
	}

	seen := map[string]string{} // code -> case (codes must be distinct)
	pairs := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := CodeFor(tc.err)
			if code != tc.wantCode {
				t.Fatalf("CodeFor(%v) = %q, want %q", tc.err, code, tc.wantCode)
			}
			status, retry := StatusFor(code)
			if status != tc.wantStatus {
				t.Fatalf("StatusFor(%q) = %d, want %d", code, status, tc.wantStatus)
			}
			if retry != tc.wantRetry {
				t.Fatalf("StatusFor(%q) retryAfter = %v, want %v", code, retry, tc.wantRetry)
			}

			// Client side: a decoded Error with this code must restore
			// errors.Is for every sentinel the server-side error carried.
			decoded := &Error{Status: status, Code: code, Message: tc.err.Error()}
			for _, sentinel := range tc.wantIs {
				if !errors.Is(decoded, sentinel) {
					t.Errorf("decoded %q does not match sentinel %v", code, sentinel)
				}
			}
			// ... and no others from the table.
			all := []error{
				service.ErrOverloaded, service.ErrCircuitOpen, service.ErrStopped,
				registry.ErrNotRegistered, registry.ErrNameTaken,
				core.ErrRecoveryAbandoned, core.ErrVerifyFailed, core.ErrCheckpointRestartRequired,
			}
			for _, sentinel := range all {
				want := false
				for _, s := range tc.wantIs {
					if s == sentinel {
						want = true
					}
				}
				if got := errors.Is(decoded, sentinel); got != want {
					t.Errorf("decoded %q: errors.Is(%v) = %v, want %v", code, sentinel, got, want)
				}
			}

			if prev, dup := seen[code]; dup && prev != tc.name && code != CodeInternal {
				t.Errorf("code %q reused by %q and %q", code, prev, tc.name)
			}
			seen[code] = tc.name
			pair := fmt.Sprintf("%d/%s", status, code)
			if prev, dup := pairs[pair]; dup && prev != tc.name && code != CodeInternal {
				t.Errorf("(status, code) pair %s reused by %q and %q", pair, prev, tc.name)
			}
			pairs[pair] = tc.name
		})
	}
}

// TestLadderExhaustionClassifiesByCause checks the precedence that makes
// 422 vs 503 meaningful: exhaustion caused by verification failure reports
// verify_failed, exhaustion without one reports checkpoint_restart_required.
func TestLadderExhaustionClassifiesByCause(t *testing.T) {
	withVerify := fmt.Errorf("%w: ladder exhausted: %w",
		core.ErrCheckpointRestartRequired, core.ErrVerifyFailed)
	if got := CodeFor(withVerify); got != CodeVerifyFailed {
		t.Fatalf("CodeFor(exhausted-by-verify) = %q, want %q", got, CodeVerifyFailed)
	}
	plain := fmt.Errorf("%w: nothing to restore", core.ErrCheckpointRestartRequired)
	if got := CodeFor(plain); got != CodeCheckpointRestart {
		t.Fatalf("CodeFor(plain exhaustion) = %q, want %q", got, CodeCheckpointRestart)
	}
}
