package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// The timeouts every listener in the repo runs with. ReadTimeout
// bounds reading one request, headers and body; net/http lifts it once
// the body is consumed, so it never cuts a response short. There is
// deliberately no write timeout: SSE event streams and shard-journal
// fetches are long-lived responses.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// NewServer is the one http.Server constructor: the campaign API, the
// worker registration listener, the worker job API, and the debug
// surface all serve through it.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// RegisterDebug mounts the shared live-debug surface on mux — the one
// route family every server in the repo (lbfarm's -debug-addr, lbmerge,
// the lbfarmd daemon, lbfarm -worker) serves,
// wired here once instead of hand-rolled per CLI:
//
//	GET /debug/vars    one JSON object, one key per vars entry, each
//	                   value rendered fresh per request (the expvar
//	                   shape; operators read it, the fleet coordinator
//	                   does not: its workers' telemetry rides their
//	                   status poll replies)
//	GET /debug/pprof/  the net/http/pprof profile family (index,
//	                   cmdline, profile, symbol, trace, and the named
//	                   runtime profiles)
//	GET /metrics       the Prometheus text exposition written by
//	                   metrics (skipped when metrics is nil)
//
// The mux is the caller's: a server that guards its routes (the worker
// 503s everything after a simulated kill) wraps the returned mux in its
// own middleware.
func RegisterDebug(mux *http.ServeMux, metrics func(io.Writer) error, vars map[string]func() any) {
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		out := make(map[string]any, len(vars))
		for name, fn := range vars {
			out[name] = fn()
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	if metrics != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", PromContentType)
			_ = metrics(w)
		})
	}
}

// SnapshotMetrics adapts a live snapshot source into the metrics writer
// RegisterDebug wants: each scrape renders snap() under the given
// series prefix. A nil snapshot (telemetry off) renders an empty, still
// valid exposition.
func SnapshotMetrics(prefix string, snap func() *Snapshot) func(io.Writer) error {
	return func(w io.Writer) error {
		var s *Snapshot
		if snap != nil {
			s = snap()
		}
		return WriteProm(w, prefix, s)
	}
}

// Serve starts the live debug endpoint on addr (host:port; port 0
// picks a free one): a fresh mux carrying RegisterDebug's route family
// — /debug/vars with every entry of vars, /debug/pprof/, and a
// Prometheus /metrics rendering of the live snapshot under the "lb_"
// local prefix. It returns the bound address and a closer. The server
// runs until closed (or process exit); a failed accept after close is
// expected and swallowed.
//
// This is the operator's observation surface: /debug/vars for
// per-stage latency and counters mid-run, /metrics for standard
// Prometheus ingestion, /debug/pprof/profile for a CPU profile of a
// live sweep without restarting it under -cpuprofile.
func Serve(addr string, snap func() *Snapshot, vars map[string]func() any) (bound string, close func() error, err error) {
	mux := http.NewServeMux()
	RegisterDebug(mux, SnapshotMetrics("lb_", snap), vars)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := NewServer(mux)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
