// Package api is the shared, versioned wire dialect every HTTP surface
// in the repo speaks: the coordinator's control API, the worker job
// API, and the lbfarmd campaign service. It pins three things in one
// place so a fourth server never grows a fourth hand-rolled variant:
//
//   - the JSON error envelope — every non-2xx response is
//     {"error":{"code","message"}}, with a small closed code set mapped
//     to documented HTTP statuses (see the Code constants);
//   - encode/decode helpers — WriteJSON/WriteError on the server side,
//     Do on the client side (which folds an error envelope back into a
//     typed *Error the caller can match on);
//   - the request/response types shared across services: worker
//     registration and job wire types, and the campaign-service
//     submission/status/event types.
//
// The path version ("/v1/…") and the envelope schema move together:
// a breaking change to either bumps Version and forks the route tree,
// never the meaning of an existing route.
package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Version is the wire dialect version, the leading path segment of
// every versioned route ("/v1/campaigns", "/v1/job/start", …).
const Version = "v1"

// Error codes. The set is closed on purpose: clients dispatch on the
// code, so servers map every failure onto one of these (plus the HTTP
// status in parentheses) rather than minting ad-hoc strings.
const (
	// CodeBadRequest (400): the request body or parameters failed to
	// parse or validate; the message names the offending field.
	CodeBadRequest = "bad_request"
	// CodeNotFound (404): the named resource — job, campaign, artifact
	// — does not exist here. For worker job routes this is the
	// amnesiac-worker signal the coordinator re-queues on.
	CodeNotFound = "not_found"
	// CodeConflict (409): the request is well-formed but the resource
	// state refuses it (worker busy with another job, journal not done).
	CodeConflict = "conflict"
	// CodeQueueFull (429): the service's admission queue is at capacity;
	// retry later.
	CodeQueueFull = "queue_full"
	// CodeInternal (500): the server failed while executing a valid
	// request.
	CodeInternal = "internal"
	// CodeUnavailable (503): the server is draining or dead and answers
	// nothing else.
	CodeUnavailable = "unavailable"
)

// Error is the one error payload every server returns and every client
// decodes. It implements error, so a transport helper can hand it
// straight back up the call stack; Status carries the HTTP status it
// traveled with (client side only — servers pass the status to
// WriteError explicitly).
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Status  int    `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Message }

// envelope is the wire shape of an error response.
type envelope struct {
	Error *Error `json:"error"`
}

// ErrorOf unwraps err to the *Error a Do call decoded, if any.
func ErrorOf(err error) (*Error, bool) {
	var ae *Error
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}

// IsCode reports whether err is (or wraps) an API error with the given
// code.
func IsCode(err error, code string) bool {
	ae, ok := ErrorOf(err)
	return ok && ae.Code == code
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the error envelope with the given status and code.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, envelope{&Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// MaxBody caps every request body a server decodes. The largest
// legitimate body, a campaign spec, is a few hundred bytes.
const MaxBody = 1 << 20

// Decode parses a JSON request body into v, rejecting bodies over
// MaxBody, unknown fields — a typoed spec key must fail the
// submission, not silently run the default grid — and trailing
// garbage. It reads at most MaxBody+1 bytes of r.
func Decode(r io.Reader, v any) error {
	data, err := io.ReadAll(io.LimitReader(r, MaxBody+1))
	if err != nil {
		return err
	}
	if len(data) > MaxBody {
		return fmt.Errorf("api: request body exceeds %d bytes", MaxBody)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("api: trailing data after JSON body")
	}
	return nil
}

// DecodeResponse parses a response body into v leniently (unknown
// fields are the forward-compatible case on the client side). A *[]byte
// target receives the raw bytes instead.
func DecodeResponse(data []byte, v any) error {
	if raw, ok := v.(*[]byte); ok {
		*raw = data
		return nil
	}
	return json.Unmarshal(data, v)
}

// ReadError folds a non-2xx response body into an *Error: the decoded
// envelope when the server sent one, a synthesized CodeInternal error
// wrapping the raw body otherwise (a proxy or panic page still yields a
// usable message).
func ReadError(status int, body []byte) *Error {
	var env envelope
	if json.Unmarshal(body, &env) == nil && env.Error != nil && env.Error.Message != "" {
		env.Error.Status = status
		if env.Error.Code == "" {
			env.Error.Code = CodeInternal
		}
		return env.Error
	}
	return &Error{
		Code:    CodeInternal,
		Message: fmt.Sprintf("HTTP %d: %s", status, strings.TrimSpace(string(body))),
		Status:  status,
	}
}

// BaseURL canonicalises a server address: a bare host:port gains the
// http scheme, and trailing slashes are dropped so path joins are
// predictable.
func BaseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

// Do runs one JSON request against url: in (when non-nil) is marshalled
// as the body, out (when non-nil) receives the response via
// DecodeResponse. Non-2xx responses return the decoded *Error. hc may
// be nil for http.DefaultClient; deadlines come from ctx.
func Do(ctx context.Context, hc *http.Client, method, url string, in, out any) error {
	var rd io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return ReadError(resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	return DecodeResponse(body, out)
}
