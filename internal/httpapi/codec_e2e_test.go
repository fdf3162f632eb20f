package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/httpapi/client"
	"spatialdue/internal/service"
)

// TestNonFiniteOutcomeReachesPoller: an ok outcome whose value is not finite
// (a shadow restore returns migrated bits verbatim, NaN included) used to
// fail the page's encoding and answer every poll with 200 and an empty body,
// wedging the tenant's pollers at their cursor. The feed now carries it
// without new, and the SDK decodes the value bit for bit from new_valbits.
func TestNonFiniteOutcomeReachesPoller(t *testing.T) {
	srv, base, shutdown := startServer(t, core.NewEngine(core.Options{Seed: 1}), httpapi.ServerConfig{
		Service: service.Config{Workers: 1, QueueDepth: 4},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	const nanBits = 0x7ff8000000000bad
	srv.AddOutcome(httpapi.OutcomeRecord{Tenant: "acme", Alloc: "field", Offset: 7, OK: true, Stage: "offlined",
		New: math.Float64frombits(nanBits), NewBits: nanBits, Attempts: 1})
	srv.AddOutcome(httpapi.OutcomeRecord{Tenant: "acme", Alloc: "field", Offset: 8, OK: true, Stage: "primary",
		New: 2.5, NewBits: math.Float64bits(2.5), Attempts: 1})

	c := client.New(client.Config{BaseURL: base, Tenant: "acme"})
	page, err := c.Outcomes(context.Background(), 0, "", 0)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if len(page.Outcomes) != 2 || page.Next != 3 {
		t.Fatalf("page %+v, want both records and next 3", page)
	}
	if got := math.Float64bits(page.Outcomes[0].New); got != nanBits || page.Outcomes[0].NewBits != nanBits {
		t.Errorf("NaN record decoded New bits %#x, NewBits %#x, want %#x", got, page.Outcomes[0].NewBits, uint64(nanBits))
	}
	if page.Outcomes[1].New != 2.5 {
		t.Errorf("finite record decoded New %v, want 2.5", page.Outcomes[1].New)
	}
}

// TestRoutesKeepTheirEscaping pins each route's HTML escaping to what
// encoding/json wrote there: off for the outcome feed and the single-event
// result (writeJSON), on for stream result lines. Each body must be the
// encoding/json encoding of what it decodes to, and carry the HTML
// characters raw or escaped as the route's setting says.
func TestRoutesKeepTheirEscaping(t *testing.T) {
	srv, base, shutdown := startServer(t, core.NewEngine(core.Options{Seed: 1}), httpapi.ServerConfig{
		Service: service.Config{Workers: 1, QueueDepth: 4},
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	srv.AddOutcome(httpapi.OutcomeRecord{Tenant: "acme", Alloc: "field", Offset: 3, Error: "a <b> & c",
		Code: httpapi.CodeInternal, Attempts: 1, UnixNano: 1})

	do := func(method, path, body string) []byte {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(httpapi.TenantHeader, "acme")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range []struct {
		route      string
		body       []byte
		v          any
		escapeHTML bool
	}{
		{"GET /v1/outcomes", do("GET", "/v1/outcomes", ""), new(httpapi.OutcomesPage), false},
		{"POST /v1/events", do("POST", "/v1/events", `{"kind":"<b>"}`), new(httpapi.EventResult), false},
		{"POST /v1/events/stream", do("POST", "/v1/events/stream", `{"kind":"<b>"}`+"\n"), new(httpapi.EventResult), true},
	} {
		if err := json.Unmarshal(c.body, c.v); err != nil {
			t.Fatalf("%s: %q: %v", c.route, c.body, err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(c.escapeHTML)
		if err := enc.Encode(c.v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.body, want.Bytes()) {
			t.Errorf("%s: body\n%s\nencoding/json (escapeHTML=%v)\n%s", c.route, c.body, c.escapeHTML, want.Bytes())
		}
		if raw := bytes.Contains(c.body, []byte("<b>")); raw == c.escapeHTML {
			t.Errorf("%s: body %s has <b> raw = %v, want %v", c.route, c.body, raw, !c.escapeHTML)
		}
	}
}
