package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"mmlpt/internal/atlas"
	"mmlpt/internal/atlas/serve"
	"mmlpt/internal/httpx"
	"mmlpt/internal/packet"
	"mmlpt/internal/topo"
	"mmlpt/internal/traceio"
)

func testService(t *testing.T) *serve.Service {
	t.Helper()
	svc, err := serve.Open(testSnapshot(t), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// testSnapshot writes the test atlas and returns its path.
func testSnapshot(t *testing.T) string {
	t.Helper()
	// One pair's diamond: .1 → {.2, .3} → .4, with .2 and .3 aliased.
	g := topo.New()
	v1 := g.AddVertex(1, packet.MustParseAddr("10.0.0.1"))
	v2 := g.AddVertex(2, packet.MustParseAddr("10.0.0.2"))
	v3 := g.AddVertex(2, packet.MustParseAddr("10.0.0.3"))
	v4 := g.AddVertex(3, packet.MustParseAddr("10.0.0.4"))
	g.AddEdge(v1, v2)
	g.AddEdge(v1, v3)
	g.AddEdge(v2, v4)
	g.AddEdge(v3, v4)
	a := atlas.New(atlas.Options{})
	a.AddGraph(0, g)
	a.AddAliasSet([]packet.Addr{packet.MustParseAddr("10.0.0.2"), packet.MustParseAddr("10.0.0.3")})
	a.AddDiamond(0, traceio.SurveyDiamond{Div: "10.0.0.1", Conv: "10.0.0.4", MaxWidth: 2, MaxLength: 2})
	a.AddPair(0, "192.0.2.1", "203.0.113.1")
	path := filepath.Join(t.TempDir(), "t.atlas")
	if err := a.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: Content-Type = %q", path, ct)
	}
	return rec.Code, rec.Body.String()
}

func TestHandlerRoutes(t *testing.T) {
	t.Parallel()
	h := newMux(testService(t))

	code, body := get(t, h, "/healthz")
	if code != http.StatusOK || body != `{"ok":true}`+"\n" {
		t.Fatalf("/healthz: %d %q", code, body)
	}

	code, body = get(t, h, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %q", code, body)
	}
	var st statsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st != (statsResponse{Pairs: 1, Nodes: 4, Edges: 4, Routers: 1, Diamonds: 1}) {
		t.Fatalf("/v1/stats: %+v", st)
	}

	code, body = get(t, h, "/v1/census")
	if code != http.StatusOK {
		t.Fatalf("/v1/census: %d %q", code, body)
	}
	var cs censusResponse
	if err := json.Unmarshal([]byte(body), &cs); err != nil {
		t.Fatal(err)
	}
	want := censusEntry{Div: "10.0.0.1", Conv: "10.0.0.4", Count: 1, Pairs: 1, MaxWidth: 2, MaxLength: 2}
	if len(cs.Diamonds) != 1 || cs.Diamonds[0] != want {
		t.Fatalf("/v1/census: %+v", cs)
	}

	// Router by member, by representative, and the unaliased singleton.
	for _, q := range []string{"10.0.0.2", "10.0.0.3"} {
		code, body = get(t, h, "/v1/router/"+q)
		if code != http.StatusOK {
			t.Fatalf("/v1/router/%s: %d %q", q, code, body)
		}
		var rr routerResponse
		if err := json.Unmarshal([]byte(body), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Addr != q || len(rr.Router) != 2 || rr.Router[0] != "10.0.0.2" || rr.Router[1] != "10.0.0.3" {
			t.Fatalf("/v1/router/%s: %+v", q, rr)
		}
	}
	code, body = get(t, h, "/v1/router/10.0.0.1")
	if code != http.StatusOK || !strings.Contains(body, `"router":["10.0.0.1"]`) {
		t.Fatalf("singleton router: %d %q", code, body)
	}

	code, body = get(t, h, "/v1/addr/10.0.0.2")
	if code != http.StatusOK {
		t.Fatalf("/v1/addr: %d %q", code, body)
	}
	var ar addrResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Addr != "10.0.0.2" || len(ar.Seen) != 1 || ar.Seen[0] != (obsResponse{Pair: 0, Hop: 2}) {
		t.Fatalf("/v1/addr: %+v", ar)
	}
}

func TestHandlerErrorPaths(t *testing.T) {
	t.Parallel()
	h := newMux(testService(t))

	// 404: well-formed but absent addresses, unknown routes, and an
	// address route with an empty or extra segment.
	for _, path := range []string{
		"/v1/router/10.9.9.9", "/v1/addr/10.9.9.9",
		"/v1/nope", "/", "/v1/stats/extra",
		"/v1/router/", "/v1/addr/", "/v1/addr/10.0.0.2/extra",
	} {
		code, body := get(t, h, path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: %d %q, want 404", path, code, body)
		}
		var e httpx.ErrorBody
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("GET %s: non-JSON error body %q", path, body)
		}
	}

	// 400: malformed addresses, and addresses not in their canonical
	// text (inet_aton reads 010 as 8, so no answer for 10.0.0.2 is right).
	for _, path := range []string{
		"/v1/router/bogus", "/v1/addr/bogus",
		"/v1/addr/010.0.0.2", "/v1/addr/0000000010.0.0.2", "/v1/addr/10.0.0.02",
		"/v1/router/010.0.0.2", "/v1/router/0000000010.0.0.2", "/v1/router/10.0.0.02",
		"/v1/addr/010.0.0.1", "/v1/addr/0000000010.0.0.1", "/v1/addr/1.2.3.04",
	} {
		code, body := get(t, h, path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: %d %q, want 400", path, code, body)
		}
	}

	// 405: non-GET on every route, the same body each time, and an
	// Allow header naming what the route takes.
	for _, path := range routes {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed || rec.Body.String() != `{"error":"method not allowed"}`+"\n" {
			t.Errorf("POST %s: %d %q, want 405", path, rec.Code, rec.Body)
		}
		if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
			t.Errorf("POST %s: Allow %q, want \"GET, HEAD\"", path, allow)
		}
	}
}

// routes holds one path of every atlasd route, each answering 200 over
// the test atlas.
var routes = []string{"/healthz", "/v1/stats", "/v1/census", "/v1/router/10.0.0.2", "/v1/addr/10.0.0.2"}

// TestHandlerHead: HEAD on every route answers as GET does, with no body.
func TestHandlerHead(t *testing.T) {
	t.Parallel()
	srv := httptest.NewServer(newMux(testService(t)))
	defer srv.Close()
	for _, path := range routes {
		resp, err := srv.Client().Head(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) != 0 || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("HEAD %s: %d %q, Content-Type %q; want 200, no body", path, resp.StatusCode, body, resp.Header.Get("Content-Type"))
		}
	}
}

// TestPointQueryAllocs pins the allocations of one query through the
// handler, its httptest request and recorder included. The address
// routes are method patterns with an {addr} wildcard: the subtree
// patterns they replaced took 27 (/v1/router/) and 25 (/v1/addr/), and
// {addr...} reads 29 and 27.
func TestPointQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	h := newMux(testService(t))
	for _, c := range []struct {
		path string
		max  float64
	}{
		{"/v1/router/10.0.0.2", 25},
		{"/v1/addr/10.0.0.2", 23},
		{"/v1/stats", 19},
	} {
		if code, body := get(t, h, c.path); code != http.StatusOK {
			t.Fatalf("GET %s: %d %q", c.path, code, body)
		}
		got := testing.AllocsPerRun(100, func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, c.path, nil))
		})
		if got > c.max {
			t.Errorf("GET %s: %.1f allocs, want <= %.0f", c.path, got, c.max)
		}
	}
}

// The service keeps answering after a mid-flight generation swap.
func TestHandlerAfterSwap(t *testing.T) {
	t.Parallel()
	path := testSnapshot(t)
	svc, err := serve.Open(path, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	h := newMux(svc)
	if err := svc.Swap(path); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, h, "/v1/stats")
	if code != http.StatusOK || !strings.Contains(body, `"nodes":4`) {
		t.Fatalf("post-swap /v1/stats: %d %q", code, body)
	}
}
