package obs

import (
	"net/http"
	"testing"
)

// TestNewServer pins the listener limits every server shares: read
// timeouts set, no write timeout (event streams and journal fetches
// are long-lived responses).
func TestNewServer(t *testing.T) {
	h := http.NewServeMux()
	srv := NewServer(h)
	if srv.Handler != h {
		t.Error("handler not installed")
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("timeouts = %v/%v/%v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout <= 0 || idleTimeout <= 0 {
		t.Error("a listener timeout is unset")
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("write timeout = %v, want none", srv.WriteTimeout)
	}
}
