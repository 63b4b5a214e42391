// Package httpx is the one JSON-over-HTTP convention that cmd/atlasd,
// the dispatch coordinator and the dispatch runner share: response and
// error body, method routes and their 405, 404, body limit, response
// reader, retry loop and server. It imports only the standard library
// (rank 0).
package httpx

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

const (
	// maxJSONBody bounds a JSON request body and a read response body.
	maxJSONBody = 1 << 20

	// A request has the runner client's own timeout to arrive whole, so
	// a client that stalls mid-body cannot hold a connection. idleTimeout
	// outlasts the default client transport's 90 s, so the client closes
	// an idle keep-alive connection first and no request races the close.
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer returns the server a daemon runs h on.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// ErrorBody is the body of every non-200 response.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteJSON answers with status and v as JSON. Struct fields keep their
// order and a newline ends the body, so a response is stable bytes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Errorf answers with status and the formatted message as ErrorBody.
func Errorf(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// NewMux returns a ServeMux that answers unmatched paths with a JSON
// 404. Register routes on it with Route.
func NewMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		Errorf(w, http.StatusNotFound, "no such route")
	})
	return mux
}

// Route registers h on mux as the pattern "method path"; a GET route
// answers HEAD too, with no body. Path alone is registered as well, so
// any other method on it gets a JSON 405 whose Allow header names the
// route's methods.
func Route(mux *http.ServeMux, method, path string, h http.HandlerFunc) {
	mux.HandleFunc(method+" "+path, h)
	allow := method
	if method == http.MethodGet {
		allow = "GET, HEAD"
	}
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		Errorf(w, http.StatusMethodNotAllowed, "method not allowed")
	})
}

// ReadBody reads r's body, at most limit bytes of it; a longer body is
// an error TooLarge reports.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
}

// TooLarge reports whether err is ReadBody's for a body over its limit.
func TooLarge(err error) bool { return errors.As(err, new(*http.MaxBytesError)) }

// DecodeJSON decodes r's body, at most 1 MiB, into v; strictly, so a
// field v does not declare is an error.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := ReadBody(w, r, maxJSONBody)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// BadRequest answers a request DecodeJSON failed on, or whose value
// failed a check (err nil): 413 for a body over the limit, else 400.
func BadRequest(w http.ResponseWriter, err error, msg string) {
	if TooLarge(err) {
		Errorf(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxJSONBody)
		return
	}
	Errorf(w, http.StatusBadRequest, "%s", msg)
}

// StatusError is a response other than 200, or a 200 whose body does
// not decode. Msg is the error body's message, else the trimmed body.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return fmt.Sprintf("server returned %d: %s", e.Code, e.Msg) }

// ReadResponse reads and closes resp's body. A 200 body decodes into
// out, when out is non-nil; any other status is a *StatusError.
func ReadResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxJSONBody))
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		var eb ErrorBody
		if json.Unmarshal(body, &eb) != nil || eb.Error == "" {
			eb.Error = strings.TrimSpace(string(body))
		}
		return &StatusError{Code: resp.StatusCode, Msg: eb.Error}
	case out != nil:
		if err := json.Unmarshal(body, out); err != nil {
			return &StatusError{Code: resp.StatusCode, Msg: fmt.Sprintf("malformed response: %v", err)}
		}
	}
	return nil
}

// Retry calls f up to attempts times, sleeping 200 ms times the number
// of calls made so far before each. It retries a transport error, and a
// *StatusError whose code final reports false; it returns f's last error.
func Retry(attempts int, final func(code int) bool, f func() error) (err error) {
	for a := 0; a < attempts; a++ {
		time.Sleep(time.Duration(a) * 200 * time.Millisecond)
		var se *StatusError
		if err = f(); err == nil || errors.As(err, &se) && final(se.Code) {
			return err
		}
	}
	return err
}
