package httpapi_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"spatialdue/internal/core"
	"spatialdue/internal/httpapi"
	"spatialdue/internal/service"
)

// tenantRoutes is every route that serves inside the request's tenant, with
// a body each would accept. allocScoped marks the routes that also resolve
// {name} inside that tenant.
var tenantRoutes = []struct {
	method, path, body string
	allocScoped        bool
}{
	{"POST", "/v1/allocations", `{"name":"fresh","dims":[4,4],"dtype":"float64","policy":{"any":true}}`, false},
	{"GET", "/v1/allocations", "", false},
	{"GET", "/v1/allocations/%s", "", true},
	{"DELETE", "/v1/allocations/%s", "", true},
	{"PUT", "/v1/allocations/%s/data", strings.Repeat("\x00", 16*8), true},
	{"GET", "/v1/allocations/%s/data", "", true},
	{"GET", "/v1/allocations/%s/element?offset=1", "", true},
	{"POST", "/v1/allocations/%s/recover", `{"offset":1}`, true},
	{"POST", "/v1/allocations/%s/inject", `{"offset":1,"bit":3}`, true},
	{"POST", "/v1/events", `{"alloc":"grid","offset":1}`, false},
	{"POST", "/v1/events/stream", `{"alloc":"grid","offset":1}` + "\n", false},
	{"GET", "/v1/outcomes", "", false},
	{"GET", "/v1/quarantine", "", false},
	{"GET", "/v1/health", "", false},
	{"GET", "/v1/traces", "", false},
	{"GET", "/v1/analytics/spatial", "", false},
}

// watchedBody is a request body that records whether a handler read it.
type watchedBody struct {
	r    *strings.Reader
	read bool
}

func (b *watchedBody) Read(p []byte) (int, error) {
	b.read = true
	return b.r.Read(p)
}

func (b *watchedBody) Close() error { return nil }

// TestTenantRouteRejections pins what every tenant-scoped route answers
// when the request cannot be served in its tenant: an invalid tenant
// header, an allocation the tenant does not have, and an allocation that
// belongs to another tenant. Status and body bytes are exact, and none of
// these requests has its body read: the tenant, then the allocation, is
// resolved first.
func TestTenantRouteRejections(t *testing.T) {
	eng := core.NewEngine(core.Options{Seed: 7})
	srv, err := httpapi.NewServer(eng, httpapi.ServerConfig{
		EnableInject:   true,
		RedeliverEvery: -1,
		Service:        service.Config{Workers: 1, QueueDepth: 8, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close(context.Background()) })

	serve := func(method, path, tenant, body string) (*httptest.ResponseRecorder, *watchedBody) {
		wb := &watchedBody{r: strings.NewReader(body)}
		req := httptest.NewRequest(method, path, nil)
		req.Body = wb
		req.ContentLength = int64(len(body))
		if tenant != "" {
			req.Header.Set(httpapi.TenantHeader, tenant)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec, wb
	}
	// "grid" lives in tenant alpha only.
	rec, _ := serve("POST", "/v1/allocations", "alpha",
		`{"name":"grid","dims":[4,4],"dtype":"float64","policy":{"any":true}}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}

	type rejection struct {
		tenant, alloc string
		status        int
		body          string
	}
	badTenant := rejection{"no/slash", "grid", http.StatusBadRequest,
		`{"error":{"code":"bad_request","message":"invalid X-Tenant \"no/slash\": want 1-64 chars of [A-Za-z0-9._-]"}}` + "\n"}
	unknown := rejection{"alpha", "missing", http.StatusNotFound,
		`{"error":{"code":"not_registered","message":"registry: address not registered: allocation \"missing\" in tenant \"alpha\""}}` + "\n"}
	foreign := rejection{"beta", "grid", http.StatusNotFound,
		`{"error":{"code":"not_registered","message":"registry: address not registered: allocation \"grid\" in tenant \"beta\""}}` + "\n"}

	for _, rt := range tenantRoutes {
		cases := []rejection{badTenant}
		if rt.allocScoped {
			cases = append(cases, unknown, foreign)
		}
		for _, c := range cases {
			path := rt.path
			if rt.allocScoped {
				path = strings.Replace(path, "%s", c.alloc, 1)
			}
			rec, wb := serve(rt.method, path, c.tenant, rt.body)
			if rec.Code != c.status || rec.Body.String() != c.body {
				t.Errorf("%s %s (tenant %q): %d %q\nwant %d %q",
					rt.method, path, c.tenant, rec.Code, rec.Body, c.status, c.body)
			}
			if wb.read {
				t.Errorf("%s %s (tenant %q): body read before the rejection", rt.method, path, c.tenant)
			}
		}
	}

	// The allocation is untouched by all of the above.
	rec, _ = serve("GET", "/v1/allocations/grid", "alpha", "")
	if rec.Code != http.StatusOK {
		t.Errorf("grid after rejections: %d %s", rec.Code, rec.Body)
	}
}
