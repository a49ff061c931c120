package transport

import (
	"errors"
	"net"
	"testing"
)

// drainServer returns a Server already in the draining state, so every
// admitted request takes the shed path deterministically.
func drainServer(reg *Registry) *Server {
	srv := NewServer(reg)
	srv.reqMu.Lock()
	srv.down = true
	srv.reqMu.Unlock()
	return srv
}

// TestOverloadResponse verifies a draining server answers requests with
// an overload response the client surfaces as ErrOverloaded — the
// connection stays up, distinguishing "server full" from "server gone".
func TestOverloadResponse(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		reg := NewRegistry()
		srv := drainServer(reg)
		cliSide, srvSide := net.Pipe()
		go func() {
			_ = serveLoop(reg, srvSide, srv, nil, 0)
		}()
		conn := NewConn(cliSide)
		defer conn.Close()

		shedBefore := tm.shed.Value()
		overloadBefore := tm.overload.Value()
		if _, err := conn.Names(); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("draining server: err = %v, want ErrOverloaded", err)
		}
		// The connection survives the shed: a second request gets shed
		// again rather than failing on a dead conn.
		if _, err := conn.Names(); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("second request after shed: err = %v, want ErrOverloaded", err)
		}
		if got := tm.shed.Value() - shedBefore; got != 2 {
			t.Errorf("rsse_requests_shed_total delta = %d, want 2", got)
		}
		if got := tm.overload.Value() - overloadBefore; got != 2 {
			t.Errorf("rsse_overload_responses_total delta = %d, want 2", got)
		}
	})
}
