package transport

import "sync"

// Pool hands out one shared Conn per server address, dialing on first
// use. A sharded cluster resolves its shards to (addr, index name)
// pairs; shards co-located on one server then multiplex over a single
// connection instead of opening k sockets to the same process. Pool is
// safe for concurrent use.
type Pool struct {
	network string
	dial    func(network, addr string) (*Conn, error)

	mu    sync.Mutex
	conns map[string]*Conn
}

// NewPoolFunc creates a pool with a custom dialer — for tests and
// in-process pipes.
func NewPoolFunc(network string, dial func(network, addr string) (*Conn, error)) *Pool {
	return &Pool{network: network, dial: dial, conns: make(map[string]*Conn)}
}

// Get returns the shared connection to addr, dialing it the first time.
// A failed dial is not cached; the next Get retries. A cached conn
// whose transport has died (sticky read or write error) is evicted
// and redialed instead of being handed out again — without this, one
// transient I/O error would poison the address forever.
func (p *Pool) Get(addr string) (*Conn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.conns[addr]; ok {
		if !c.Dead() {
			return c, nil
		}
		delete(p.conns, addr)
		c.Close()
	}
	c, err := p.dial(p.network, addr)
	if err != nil {
		return nil, err
	}
	p.conns[addr] = c
	return c, nil
}

// Evict drops the cached connection for addr if it is still c, and
// closes it. Callers that discover a conn is unusable (a black-holed
// peer times every request out without the read loop ever failing)
// evict it so the next Get dials fresh. The identity check means a
// racing caller that already replaced the conn loses nothing.
func (p *Pool) Evict(addr string, c *Conn) {
	p.mu.Lock()
	if cur, ok := p.conns[addr]; ok && cur == c {
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Close closes every pooled connection, returning the first error.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for addr, c := range p.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		delete(p.conns, addr)
	}
	return first
}
