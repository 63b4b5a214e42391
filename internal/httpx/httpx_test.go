package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// encoded is what json.NewEncoder(w).Encode writes for v.
func encoded(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestConvention drives each half of the convention through one table:
// what a server writes (status and exact body bytes) and what a client
// makes of it.
func TestConvention(t *testing.T) {
	t.Parallel()
	type okBody struct {
		N int `json:"n"`
	}
	mux := NewMux()
	Route(mux, http.MethodGet, "/get", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, okBody{N: 7})
	})
	Route(mux, http.MethodPost, "/decode", func(w http.ResponseWriter, r *http.Request) {
		var v okBody
		if err := DecodeJSON(w, r, &v); err != nil {
			BadRequest(w, err, "malformed request")
			return
		}
		WriteJSON(w, http.StatusOK, v)
	})
	Route(mux, http.MethodGet, "/item/{id}", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, okBody{N: len(r.PathValue("id"))})
	})
	mux.HandleFunc("/gone", func(w http.ResponseWriter, r *http.Request) {
		Errorf(w, http.StatusGone, "lease %d on unit %d is no longer held", 3, 4)
	})
	mux.HandleFunc("/badjson", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{not json"))
	})
	mux.HandleFunc("/plain", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "  upstream down  ", http.StatusBadGateway)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	for _, tc := range []struct {
		name, method, path, body string
		code                     int
		// wire, when set, is the exact response body.
		wire any
		// msg is the client's StatusError message; "" means success.
		msg string
		// allow is the Allow header a 405 must carry.
		allow string
	}{
		{name: "200", method: "GET", path: "/get", code: 200, wire: okBody{N: 7}},
		{name: "wildcard", method: "GET", path: "/item/abc", code: 200, wire: okBody{N: 3}},
		{name: "405", method: "POST", path: "/get", code: 405,
			wire: ErrorBody{Error: "method not allowed"}, msg: "method not allowed", allow: "GET, HEAD"},
		{name: "405 on a POST route", method: "GET", path: "/decode", code: 405,
			wire: ErrorBody{Error: "method not allowed"}, msg: "method not allowed", allow: "POST"},
		{name: "404 below a wildcard", method: "GET", path: "/item/1/extra", code: 404,
			wire: ErrorBody{Error: "no such route"}, msg: "no such route"},
		{name: "404", method: "GET", path: "/nope", code: 404,
			wire: ErrorBody{Error: "no such route"}, msg: "no such route"},
		{name: "404 below an exact route", method: "GET", path: "/get/extra", code: 404,
			wire: ErrorBody{Error: "no such route"}, msg: "no such route"},
		{name: "error body", method: "GET", path: "/gone", code: 410,
			wire: ErrorBody{Error: "lease 3 on unit 4 is no longer held"}, msg: "lease 3 on unit 4 is no longer held"},
		{name: "200 malformed JSON", method: "GET", path: "/badjson", code: 200,
			msg: "malformed response: invalid character 'n' looking for beginning of object key string"},
		{name: "non-JSON error body", method: "GET", path: "/plain", code: 502, msg: "upstream down"},
		{name: "decoded", method: "POST", path: "/decode", body: `{"n":5}`, code: 200, wire: okBody{N: 5}},
		{name: "malformed request", method: "POST", path: "/decode", body: `{"n":`, code: 400,
			wire: ErrorBody{Error: "malformed request"}, msg: "malformed request"},
		{name: "unknown field", method: "POST", path: "/decode", body: `{"m":5}`, code: 400,
			wire: ErrorBody{Error: "malformed request"}, msg: "malformed request"},
		{name: "over the limit", method: "POST", path: "/decode",
			body: `{"n":5,"pad":"` + strings.Repeat("x", maxJSONBody) + `"}`, code: 413,
			wire: ErrorBody{Error: "request body exceeds 1048576 bytes"}, msg: "request body exceeds 1048576 bytes"},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s: Allow %q, want %q", tc.name, got, tc.allow)
		}
		if tc.wire != nil {
			if want := encoded(t, tc.wire); string(body) != want {
				t.Errorf("%s: body %q, want %q", tc.name, body, want)
			}
			if got := resp.Header.Get("Content-Type"); got != "application/json" {
				t.Errorf("%s: Content-Type %q", tc.name, got)
			}
		}

		resp.Body = io.NopCloser(bytes.NewReader(body))
		var out okBody
		err = ReadResponse(resp, &out)
		var se *StatusError
		switch {
		case tc.msg == "" && err != nil:
			t.Errorf("%s: ReadResponse: %v", tc.name, err)
		case tc.msg == "" && out == (okBody{}):
			t.Errorf("%s: ReadResponse decoded nothing", tc.name)
		case tc.msg != "" && !errors.As(err, &se):
			t.Errorf("%s: ReadResponse returned %v, want a *StatusError", tc.name, err)
		case tc.msg != "" && (se.Code != tc.code || se.Msg != tc.msg):
			t.Errorf("%s: StatusError %d %q, want %d %q", tc.name, se.Code, se.Msg, tc.code, tc.msg)
		}
	}
}

// TestRouteHead: a GET route answers HEAD as it answers GET, with no
// body; a POST route refuses HEAD with its 405.
func TestRouteHead(t *testing.T) {
	t.Parallel()
	mux := NewMux()
	Route(mux, http.MethodGet, "/get", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, ErrorBody{})
	})
	Route(mux, http.MethodPost, "/post", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, ErrorBody{})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, tc := range []struct {
		path, allow string
		code        int
	}{
		{"/get", "", http.StatusOK},
		{"/post", "POST", http.StatusMethodNotAllowed},
	} {
		resp, err := srv.Client().Head(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code || len(body) != 0 || resp.Header.Get("Allow") != tc.allow {
			t.Errorf("HEAD %s: %d %q, Allow %q; want %d, no body, Allow %q",
				tc.path, resp.StatusCode, body, resp.Header.Get("Allow"), tc.code, tc.allow)
		}
	}
}

// TestRetry: a transport error is retried, a final status is not, and a
// status the callback does not call final is retried like a transport
// error.
func TestRetry(t *testing.T) {
	t.Parallel()
	transport := errors.New("connection refused")
	gone := &StatusError{Code: http.StatusGone}
	for _, tc := range []struct {
		name  string
		errs  []error
		final func(int) bool
		calls int
		want  error
	}{
		{"first try", []error{nil}, nil, 1, nil},
		{"transport then ok", []error{transport, nil}, nil, 2, nil},
		{"final status", []error{gone, nil}, func(c int) bool { return c == http.StatusGone }, 1, gone},
		{"retried status", []error{gone, nil}, func(int) bool { return false }, 2, nil},
		{"out of attempts", []error{transport, transport, transport}, nil, 3, transport},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			calls := 0
			err := Retry(3, tc.final, func() error {
				calls++
				return tc.errs[calls-1]
			})
			if calls != tc.calls || err != tc.want {
				t.Errorf("%d calls, %v; want %d calls, %v", calls, err, tc.calls, tc.want)
			}
		})
	}
}

// TestServerTimeouts: the one server reaps idle and stalled
// connections. With its read timeout shortened, a client that sends its
// headers and part of a body and then stalls gets its connection
// closed.
func TestServerTimeouts(t *testing.T) {
	t.Parallel()
	srv := NewServer(nil)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts: header %v, read %v, idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}

	read := make(chan error, 1)
	srv = NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := ReadBody(w, r, 1<<20)
		read <- err
	}))
	srv.ReadTimeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /ship HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n0123456789"); err != nil {
		t.Fatal(err)
	}
	// The client never sends the other 90 bytes. The server must close
	// the connection long before this test's own deadline.
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection with a stalled body was not closed: %v", err)
	}
	if err := <-read; err == nil {
		t.Fatal("reading the stalled body succeeded")
	}
}
