package core

import (
	"encoding/binary"
	"fmt"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// BuildIndex runs the scheme's BuildIndex algorithm: it encrypts the
// tuples into the store and builds the encrypted search index(es). The
// returned Index (plus its embedded encrypted tuple store) is everything
// the server needs; it contains no key material.
func (c *Client) BuildIndex(tuples []Tuple) (*Index, error) {
	for _, t := range tuples {
		if !c.dom.Contains(t.Value) {
			return nil, fmt.Errorf("%w: value %d, domain size %d", ErrValueOutsideDomain, t.Value, c.dom.Size())
		}
	}
	store, err := buildStore(c.storeBlock, tuples, c.storage)
	if err != nil {
		return nil, err
	}
	// Every build draws its shuffles from c.rnd, serially.
	c.mu.Lock()
	defer c.mu.Unlock()
	x := &Index{
		kind:   c.kind,
		dom:    c.dom,
		n:      len(tuples),
		store:  store,
		suite:  c.suite,
		engine: storage.OrDefault(c.storage).Name(),
	}
	p := c.plan(tuples)
	switch c.kind {
	case Quadratic:
		err = c.buildQuadratic(x, p)
	case ConstantBRC, ConstantURC:
		err = c.buildConstant(x, p)
	case LogarithmicBRC, LogarithmicURC:
		err = c.buildLogarithmic(x, p)
	case LogarithmicSRC:
		err = c.buildLogSRC(x, p)
	case LogarithmicSRCi:
		err = c.buildLogSRCi(x, p)
	default:
		err = fmt.Errorf("core: unknown scheme kind %d", int(c.kind))
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// plan is a build's tuples sorted by value: their values, ascending,
// and their ids in the same order, 8 bytes big-endian each. A keyword
// is an interval of values, so its posting list is a run of ids.
type plan struct {
	vals []Value
	ids  []byte
}

// plan sorts the tuples by value, stably, so ties keep their input
// order; Logarithmic-SRC-i shuffles the tuples first, so its ties are in
// random order (the paper shuffles same-keyword documents before
// building TDAG2). The sort is a least-significant-digit radix sort, a
// counting pass per byte of a value. The caller holds c.mu.
func (c *Client) plan(tuples []Tuple) plan {
	type valueID struct{ v, id uint64 }
	ps, tmp := make([]valueID, len(tuples)), make([]valueID, len(tuples))
	for i, t := range tuples {
		ps[i] = valueID{t.Value, t.ID}
	}
	if c.kind == LogarithmicSRCi {
		c.rnd.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	}
	for shift := uint(0); shift < uint(c.dom.Bits); shift += 8 {
		var at [257]int
		for _, q := range ps {
			at[int(byte(q.v>>shift))+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, q := range ps {
			tmp[at[byte(q.v>>shift)]] = q
			at[byte(q.v>>shift)]++
		}
		ps, tmp = tmp, ps
	}
	p := plan{vals: make([]Value, len(ps)), ids: make([]byte, 8*len(ps))}
	for i, q := range ps {
		p.vals[i] = q.v
		binary.BigEndian.PutUint64(p.ids[8*i:], q.id)
	}
	return p
}

// idEntries is an entry per run, its stag derived under key for the
// suite this client builds and its payloads the run's ids.
func (c *Client) idEntries(runs []cover.Run, ids []byte, key prf.Key) []sse.Entry {
	entries := make([]sse.Entry, len(runs))
	s := newStagger(c.suite, key)
	for i, r := range runs {
		entries[i] = sse.Entry{Stag: s.node(r.Node), Data: ids[8*r.Lo : 8*r.Hi]}
	}
	s.release()
	return entries
}
