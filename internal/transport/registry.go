package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rsse/internal/core"
)

// DefaultIndex is the registry name single-index deployments serve under;
// Serve, ServeConn and the owner-side Conn.Default use it implicitly.
const DefaultIndex = "default"

// maxNameLen bounds an index name on the wire (one length byte).
const maxNameLen = 255

// Errors reported by the registry.
var (
	ErrUnknownIndex   = errors.New("transport: unknown index")
	ErrDuplicateIndex = errors.New("transport: index name already registered")
	ErrBadIndexName   = errors.New("transport: index name must be 1..255 bytes")
)

// Registry is a concurrent-safe collection of named indexes served by one
// process: independent tables, LSM epochs, or any mix. Served indexes
// must be safe for concurrent reads (a *core.Index is — it is immutable
// after build), because the server dispatches requests from every
// connection against them in parallel.
//
// Indexes register either eagerly (Register, with a live core.Source) or
// lazily (RegisterLazy, with an opener the registry invokes on the first
// request that addresses the name). Lazy registration is what lets one
// server front a directory holding far more index bytes than RAM: names
// appear immediately, files open — typically as zero-copy mmaps via
// core.OpenIndexFile — only when traffic arrives.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*regEntry
	// w is the update namespace: writable dynamic stores addressed by
	// the update wire ops (RegisterUpdatable), independent of the read
	// indexes in m.
	w map[string]Updatable
}

// regEntry is one served name: either a live server, or an opener that
// resolves to one on first use. The open result (or error) is cached, so
// each name's file is opened at most once. ob carries the entry's
// pre-resolved per-index metric children (request counts, leakage
// families, resident bytes), so the request path pays no label lookups.
type regEntry struct {
	mu   sync.Mutex
	open func() (core.Source, error)
	s    core.Source
	err  error
	ob   *indexObs
}

// resolve returns the entry's server, invoking a pending opener once.
// Lazy opens are timed into rsse_index_open_seconds, and a resolved
// server's resident bytes land in the per-index gauge.
func (e *regEntry) resolve() (core.Source, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.open != nil {
		start := time.Now()
		e.s, e.err = e.open()
		if e.err == nil && e.s == nil {
			e.err = errors.New("transport: lazy opener returned a nil index")
		}
		e.open = nil // open exactly once; the outcome is cached either way
		ixOpenSeconds.Record(time.Since(start))
		if e.err == nil {
			e.observeResident()
		}
	}
	return e.s, e.err
}

// observeResident publishes the resolved index's resident bytes; only a
// local *core.Index has any. Callers hold e.mu or know e.s is immutable.
func (e *regEntry) observeResident() {
	if x, ok := e.s.(*core.Index); ok {
		e.ob.resident.Set(int64(x.Stats().Resident))
	}
}

// loaded reports the resolved server without triggering an open and
// without waiting on one: if an opener holds the entry locked right
// now, the entry simply reports as not-yet-loaded.
func (e *regEntry) loaded() (core.Source, error, bool) {
	if !e.mu.TryLock() {
		return nil, nil, false
	}
	defer e.mu.Unlock()
	return e.s, e.err, e.open == nil
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*regEntry)}
}

func (r *Registry) add(name string, e *regEntry) error {
	if len(name) == 0 || len(name) > maxNameLen {
		return fmt.Errorf("%w: %q", ErrBadIndexName, name)
	}
	e.ob = newIndexObs(name)
	if e.s != nil {
		e.observeResident()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateIndex, name)
	}
	r.m[name] = e
	return nil
}

// Register adds an index under name. Names are 1..255 bytes and must be
// unique; registering on a live registry is safe at any time, including
// while serving.
func (r *Registry) Register(name string, s core.Source) error {
	if s == nil {
		return errors.New("transport: cannot register a nil index")
	}
	return r.add(name, &regEntry{s: s})
}

// RegisterLazy adds a name whose index opens on first use: the first
// request addressing it invokes open (concurrent requests wait), and the
// result — server or error — is cached for every later request. A failed
// open therefore marks the name broken rather than hammering the opener;
// Deregister and re-register to retry after repairing the underlying
// file.
func (r *Registry) RegisterLazy(name string, open func() (core.Source, error)) error {
	if open == nil {
		return errors.New("transport: cannot register a nil opener")
	}
	return r.add(name, &regEntry{open: open})
}

// Deregister removes name, reporting whether it was present. In-flight
// requests against the index complete; new requests fail with
// ErrUnknownIndex. The registry never closes served indexes — owners of
// file-backed indexes close them once in-flight use is done.
func (r *Registry) Deregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.m[name]
	delete(r.m, name)
	return ok
}

// lookupServing resolves a served index by name, opening it first if
// it was registered lazily, and returns the entry's per-index metric set
// for the request path.
func (r *Registry) lookupServing(name string) (core.Source, *indexObs, error) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownIndex, name)
	}
	s, err := e.resolve()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %q: %v", ErrUnknownIndex, name, err)
	}
	return s, e.ob, nil
}

// Names lists the registered names in sorted order, lazy entries
// included.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of registered indexes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// IndexStat is one registry entry's serving state: whether it has been
// opened, the cached open error if opening failed, and — for a local
// *core.Index — the index's operational stats.
type IndexStat struct {
	Name   string
	Loaded bool
	Err    error
	Stats  core.IndexStats // zero unless Loaded and a local *core.Index
}

// Stats reports every registered index's serving state, sorted by name.
// It never triggers a lazy open and never waits on one in flight —
// observing a fleet must stay free; an index mid-open reports as not
// yet loaded.
func (r *Registry) Stats() []IndexStat {
	r.mu.RLock()
	entries := make(map[string]*regEntry, len(r.m))
	for name, e := range r.m {
		entries[name] = e
	}
	r.mu.RUnlock()
	out := make([]IndexStat, 0, len(entries))
	for name, e := range entries {
		st := IndexStat{Name: name}
		if s, err, done := e.loaded(); done {
			st.Err = err
			if err == nil {
				st.Loaded = true
				if x, ok := s.(*core.Index); ok {
					st.Stats = x.Stats()
				}
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// singleRegistry wraps one index under the default name, for the
// single-index compatibility entry points.
func singleRegistry(idx core.Source) *Registry {
	r := NewRegistry()
	if err := r.Register(DefaultIndex, idx); err != nil {
		panic("transport: " + err.Error()) // DefaultIndex is a valid name
	}
	return r
}
