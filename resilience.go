package rsse

import (
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

// DialIndexWith is DialIndex with connection-level options: it reads
// WithRetry and WithConnWrapper. Without them it behaves exactly like
// DialIndex: one connection, no retries, transport failures surface to
// the caller as ErrConnDead.
func DialIndexWith(network, addr, name string, opts ...Option) (*RemoteIndex, error) {
	cfg, err := collectOptions(opts)
	if err != nil {
		return nil, err
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
