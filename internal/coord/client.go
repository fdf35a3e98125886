package coord

import (
	"context"
	"net/http"
	"net/url"
	"time"

	"repro/internal/api"
)

// Client is the HTTP implementation of Worker: the coordinator's handle
// on one `lbfarm -worker` process, speaking the WorkerServer.Handler
// routes in the shared wire dialect (internal/api).
type Client struct {
	id   string
	base string
	http *http.Client
}

// NewClient builds a worker handle. addr is host:port or a full URL;
// per-call deadlines come from the caller's context.
func NewClient(id, addr string) *Client {
	return &Client{id: id, base: api.BaseURL(addr), http: &http.Client{}}
}

// ID implements Worker.
func (c *Client) ID() string { return c.id }

// do runs one request through api.Do and maps the protocol signals the
// lease machinery dispatches on: a not_found envelope means the worker
// does not hold the job (ErrUnknownJob) — a signal, not a transport
// failure.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	err := api.Do(ctx, c.http, method, c.base+path, body, out)
	if api.IsCode(err, api.CodeNotFound) {
		return ErrUnknownJob
	}
	return err
}

// Start implements Worker.
func (c *Client) Start(ctx context.Context, job Job) error {
	return c.do(ctx, http.MethodPost, "/v1/job/start", job, nil)
}

// Status implements Worker.
func (c *Client) Status(ctx context.Context, jobID string) (WorkerStatus, error) {
	var st WorkerStatus
	err := c.do(ctx, http.MethodGet, "/v1/job/status?id="+url.QueryEscape(jobID), nil, &st)
	return st, err
}

// Cancel implements Worker.
func (c *Client) Cancel(ctx context.Context, jobID string) error {
	return c.do(ctx, http.MethodPost, "/v1/job/cancel?id="+url.QueryEscape(jobID), nil, nil)
}

// Journal implements Worker.
func (c *Client) Journal(ctx context.Context, jobID string) ([]byte, error) {
	var data []byte
	err := c.do(ctx, http.MethodGet, "/v1/job/journal?id="+url.QueryEscape(jobID), nil, &data)
	return data, err
}

// Announce registers a worker with the coordinator and repeats the
// registration every interval until ctx ends: the periodic register is
// the worker's heartbeat. A coordinator that still holds the worker
// ignores the repeat; one that declared it dead, or restarted, takes it
// back. Failures are logged and retried on the next interval — the
// worker outliving a coordinator blip is the whole point.
func Announce(ctx context.Context, coordURL, id, addr string, interval time.Duration, logf func(string, ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	base := api.BaseURL(coordURL)
	hc := &http.Client{Timeout: interval}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	registered := false
	for {
		err := api.Do(ctx, hc, http.MethodPost, base+"/v1/register", api.Registration{ID: id, Addr: addr}, nil)
		switch {
		case err != nil:
			logf("registering with %s: %v (will retry)", base, err)
		case !registered:
			logf("registered with %s as %s (%s)", base, id, addr)
		}
		registered = err == nil
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
