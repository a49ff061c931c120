package rsse

import (
	"errors"
	"net"

	"rsse/internal/transport"
)

// ErrConnDead marks failures caused by the transport itself dying — a
// lost connection, a failed write, an unreachable server — as opposed
// to errors the server reported over a healthy connection. Detect it
// with errors.Is; it is the retryable class for idempotent reads.
var ErrConnDead = transport.ErrConnDead

// RetryPolicy bounds automatic retries of idempotent read operations
// (query, batch query, fetch, meta) on a resilient handle: total
// attempts, exponential backoff base and cap (with jitter), and an
// optional per-attempt deadline that turns a silently unresponsive
// connection into a detectable, retryable fault. The zero value
// selects the defaults. Updates are never retried — they stay
// at-most-once through the server's WAL acknowledgement.
type RetryPolicy = transport.RetryPolicy

// dialConfig collects the DialOptions.
type dialConfig struct {
	retry    *RetryPolicy
	connWrap func(net.Conn) net.Conn
}

// DialOption customizes how Dial/DialIndexWith connect.
type DialOption func(*dialConfig) error

// WithRetry makes the dialed handle resilient: sticky-dead
// connections are evicted and redialed, idempotent read ops retry
// under p with capped jittered backoff, ErrOverloaded responses back
// off on the same connection instead of failing over, and (when
// p.OpTimeout is set) each attempt carries its own deadline. The zero
// policy selects the defaults (4 attempts, 10ms base backoff, 1s cap).
func WithRetry(p RetryPolicy) DialOption {
	return func(c *dialConfig) error {
		pc := p
		c.retry = &pc
		return nil
	}
}

// WithConnWrapper passes every connection this handle opens through
// wrap before the transport takes over — the seam chaos tests and the
// load harness use to inject deterministic faults (see internal/fault
// and rsse-load's -fault flag).
func WithConnWrapper(wrap func(net.Conn) net.Conn) DialOption {
	return func(c *dialConfig) error {
		if wrap == nil {
			return errors.New("rsse: nil conn wrapper")
		}
		c.connWrap = wrap
		return nil
	}
}

// wrappedDial dials like transport.Dial, passing every new connection
// through wrap (when non-nil) before the transport takes over.
func wrappedDial(wrap func(net.Conn) net.Conn) func(network, addr string) (*transport.Conn, error) {
	if wrap == nil {
		return transport.Dial
	}
	return func(network, addr string) (*transport.Conn, error) {
		nc, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return transport.NewConn(wrap(nc)), nil
	}
}

// DialIndexWith is DialIndex with connection-level options. Without
// options it behaves exactly like DialIndex: one connection, no
// retries, transport failures surface to the caller as ErrConnDead.
func DialIndexWith(network, addr, name string, opts ...DialOption) (*RemoteIndex, error) {
	var cfg dialConfig
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	dial := wrappedDial(cfg.connWrap)
	if cfg.retry == nil {
		c, err := dial(network, addr)
		if err != nil {
			return nil, err
		}
		return &RemoteIndex{remoteHandle: c.Index(name), names: c.Names, close: c.Close}, nil
	}
	// Resilient path: connections live in a single-address pool the
	// redialer replaces dead entries of; dialing is lazy, so a server
	// that is down right now only costs the first op its retries.
	pool := transport.NewPoolFunc(network, dial)
	rd := transport.NewRedialer(pool, addr, *cfg.retry)
	return &RemoteIndex{
		remoteHandle: rd.Index(name),
		names: func() ([]string, error) {
			c, err := rd.Get()
			if err != nil {
				return nil, err
			}
			return c.Names()
		},
		close: pool.Close,
	}, nil
}
