package rsse

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"rsse/internal/core"
	"rsse/internal/transport"
)

// ErrOverloaded is returned by a query whose request the server shed
// (it is alive but refusing new work, e.g. during a shutdown drain).
// Distinct from a connection error so clients can back off or fail
// over; detect it with errors.Is.
var ErrOverloaded = transport.ErrOverloaded

// DefaultIndexName is the name single-index deployments serve under.
// Serve and Dial use it implicitly; multi-index servers pick their own
// names per Registry.Register.
const DefaultIndexName = transport.DefaultIndex

// Registry is a collection of named encrypted indexes served together by
// one process: independent tables, LSM epochs, or any mix. It is safe
// for concurrent use and stays live while served — indexes registered or
// deregistered later are picked up per request.
type Registry struct {
	inner *transport.Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{inner: transport.NewRegistry()}
}

// Register serves index under name (1..255 bytes, unique).
func (r *Registry) Register(name string, index *Index) error {
	if index == nil {
		// Checked here while the concrete type is known: a nil *Index
		// boxed into the interface would pass the transport layer's nil
		// check and panic on first request.
		return errors.New("rsse: cannot register a nil index")
	}
	return r.inner.Register(name, index)
}

// RegisterLazy serves name without loading anything yet: the first
// request addressing the name invokes open — typically an OpenIndexFile
// call — and the result (index or error) is cached for all later
// requests. This is how one process fronts a directory holding more
// index bytes than RAM: every name is routable immediately, files open
// on demand.
func (r *Registry) RegisterLazy(name string, open func() (*Index, error)) error {
	if open == nil {
		return errors.New("rsse: cannot register a nil opener")
	}
	return r.inner.RegisterLazy(name, func() (core.Source, error) {
		idx, err := open()
		if err != nil {
			return nil, err
		}
		if idx == nil {
			return nil, errors.New("rsse: opener returned a nil index")
		}
		return idx, nil
	})
}

// Deregister stops serving name, reporting whether it was present.
func (r *Registry) Deregister(name string) bool {
	return r.inner.Deregister(name)
}

// Names lists the registered index names in sorted order.
func (r *Registry) Names() []string { return r.inner.Names() }

// ServedIndexStat is one registry entry's serving state: whether a
// lazily registered index has been opened yet, its cached open error if
// opening failed, and its operational stats once loaded.
type ServedIndexStat = transport.IndexStat

// Stats reports every registered index's serving state, sorted by name.
// It never triggers a lazy open.
func (r *Registry) Stats() []ServedIndexStat { return r.inner.Stats() }

// Server serves a Registry to remote owners over any number of
// listeners; it holds no keys. Construct one with NewServer.
type Server = transport.Server

// NewServer creates a server over reg.
func NewServer(reg *Registry) *Server { return transport.NewServer(reg.inner) }

// Serve serves one encrypted index under the default name until the
// listener is closed — the single-table deployment. Use NewServer with a
// Registry for multiple named indexes and graceful shutdown.
func Serve(l net.Listener, index *Index) error {
	return transport.Serve(l, index)
}

// ServeConn serves an index over a single established connection
// (useful for custom listeners or in-process pipes).
func ServeConn(conn io.ReadWriter, index *Index) error {
	return transport.ServeConn(conn, index)
}

// RemoteIndex is the owner-side handle to an index served elsewhere. It
// is a Source: a Client queries it exactly as it queries a local
// *Index, with each round crossing the connection. It is safe for
// concurrent use: requests are multiplexed by id over the connection,
// so parallel queries from many goroutines interleave without
// corrupting the stream (and without waiting on each other's
// responses). MetaContext reports the served index's scheme, domain and
// size, and Name the served-index name the handle addresses.
type RemoteIndex struct {
	remoteHandle
	names func() ([]string, error)
	close func() error
}

// remoteHandle is the wire handle a RemoteIndex speaks through, and what
// it promotes: a plain per-conn one (transport.IndexHandle) or a
// retrying one over a redialing pool (transport.ResilientHandle, via
// DialIndexWith + WithRetry).
type remoteHandle interface {
	Source
	Name() string
}

// Dial connects to a remote index server and addresses its default
// index, e.g. Dial("tcp", "search.internal:7070").
func Dial(network, addr string) (*RemoteIndex, error) {
	return DialIndex(network, addr, DefaultIndexName)
}

// DialIndex connects to a remote multi-index server and addresses the
// index served under name.
func DialIndex(network, addr, name string) (*RemoteIndex, error) {
	return DialIndexWith(network, addr, name)
}

// NewRemoteIndex wraps an established stream connection (TCP, unix
// socket, net.Pipe, TLS — anything io.ReadWriteCloser), addressing the
// default index.
func NewRemoteIndex(conn io.ReadWriteCloser) *RemoteIndex {
	c := transport.NewConn(conn)
	return &RemoteIndex{remoteHandle: c.Default(), names: c.Names, close: c.Close}
}

// Close closes the connection (for a resilient handle, its pool).
func (r *RemoteIndex) Close() error { return r.close() }

// ServedIndexes asks the server which index names it serves.
func (r *RemoteIndex) ServedIndexes() ([]string, error) { return r.names() }

// DialCluster connects a cluster built earlier (BuildCluster) to its
// remotely served shards. Every shard resolves to a served-index name on
// some server: the shard's Addr in the manifest when set, defaultAddr
// otherwise — so one address serves a co-located cluster, and a static
// shard→addr table spreads shards across machines. Shards sharing an
// address multiplex over one connection. The master key must be the one
// the cluster was built with (Cluster.MasterKey); the manifest itself
// carries no secrets. WithRetry makes every shard target a retrying
// handle, and WithConnWrapper wraps every shard connection.
//
// Close the returned cluster to drop the connections.
func DialCluster(network, defaultAddr string, man ClusterManifest, masterKey []byte, opts ...Option) (*Cluster, error) {
	c, cfg, err := clusterFromManifest(man, masterKey, opts)
	if err != nil {
		return nil, err
	}
	return finishDialCluster(c, cfg, man, transport.NewPoolFunc(network, wrappedDial(cfg.connWrap)), defaultAddr)
}

// finishDialCluster attaches every shard's wire target. Without a
// retry policy each shard dials eagerly (an unreachable address fails
// here, fast); with WithRetry targets are lazy retrying handles and a
// dead shard surfaces per query — as a typed partial result under
// WithPartialResults.
func finishDialCluster(c *Cluster, cfg config, man ClusterManifest, pool *transport.Pool, defaultAddr string) (*Cluster, error) {
	c.closers = append(c.closers, pool)
	for i, info := range man.Shards {
		addr := info.Addr
		if addr == "" {
			addr = defaultAddr
		}
		if addr == "" {
			c.Close()
			return nil, fmt.Errorf("rsse: shard %d (%s) has no address and no default was given", i, info.Name)
		}
		if cfg.retry != nil {
			c.targets[i] = transport.NewRedialer(pool, addr, *cfg.retry).Index(info.Name)
			continue
		}
		conn, err := pool.Get(addr)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("rsse: dialing shard %d (%s) at %s: %w", i, info.Name, addr, err)
		}
		c.targets[i] = conn.Index(info.Name)
	}
	return c, nil
}

// DefaultDynamicName is the update-namespace name writable deployments
// serve under when none is chosen (rsse-server -writable uses it).
const DefaultDynamicName = "dynamic"

// writableTarget adapts a Dynamic to the transport's update ops,
// serializing access: Dynamic is single-writer by contract, but the
// server dispatches requests from every connection concurrently.
type writableTarget struct {
	mu sync.Mutex
	s  *Dynamic
}

func (w *writableTarget) ApplyUpdate(u transport.Update) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch u.Kind {
	case transport.UpdateInsert:
		return w.s.Insert(u.ID, u.Value, u.Payload)
	case transport.UpdateDelete:
		return w.s.Delete(u.ID, u.Value)
	case transport.UpdateModify:
		return w.s.Modify(u.ID, u.Value, u.NewValue, u.Payload)
	default:
		return fmt.Errorf("rsse: unknown update kind %d", u.Kind)
	}
}

func (w *writableTarget) FlushUpdates() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.s.Flush()
}

func (w *writableTarget) QueryTuples(q core.Range) ([]core.Tuple, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	tuples, _, err := w.s.QueryContext(context.Background(), q)
	return tuples, err
}

// RegisterWritable serves a writable store — typically a durable
// Dynamic, sharded or not — under name in the update namespace, so
// remote owners mutate it through RemoteDynamic. The namespace is
// independent of read indexes: the same name may serve both.
//
// Trust model: the serving process holds the store's keys (updates
// arrive and query results leave in plaintext on the wire), so a
// writable server is an owner-side durable write gateway, NOT the
// paper's untrusted query server. Put it with the owner's
// infrastructure and front it with transport security; see
// ARCHITECTURE.md.
func (r *Registry) RegisterWritable(name string, store *Dynamic) error {
	if store == nil {
		return errors.New("rsse: cannot register a nil writable store")
	}
	return r.inner.RegisterUpdatable(name, &writableTarget{s: store})
}

// RemoteDynamic is the owner-side handle to a writable store served by
// an rsse-server -writable process: inserts, deletes and modifications
// cross the wire and are acknowledged once the server has them per its
// durability policy (with the server's WithSyncEvery(1) default, once
// they are fsynced into its write-ahead log). It is safe for concurrent
// use; the server serializes updates per store.
type RemoteDynamic struct {
	conn   *transport.Conn
	handle *transport.UpdateHandle
}

// DialDynamic connects to a writable server and addresses the writable
// store served under name (DefaultDynamicName for rsse-server
// -writable's default).
func DialDynamic(network, addr, name string) (*RemoteDynamic, error) {
	c, err := transport.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &RemoteDynamic{conn: c, handle: c.Updatable(name)}, nil
}

// NewRemoteDynamic wraps an established stream connection (TCP, unix
// socket, net.Pipe — anything io.ReadWriteCloser), addressing the
// writable store called name.
func NewRemoteDynamic(conn io.ReadWriteCloser, name string) *RemoteDynamic {
	c := transport.NewConn(conn)
	return &RemoteDynamic{conn: c, handle: c.Updatable(name)}
}

// Close closes the connection.
func (r *RemoteDynamic) Close() error { return r.conn.Close() }

// Name returns the writable-store name this handle addresses.
func (r *RemoteDynamic) Name() string { return r.handle.Name() }

// Insert ships a tuple insertion; nil means the server accepted and
// (per its fsync policy) persisted it.
func (r *RemoteDynamic) Insert(id ID, value Value, payload []byte) error {
	return r.handle.ApplyContext(context.Background(), transport.Update{Kind: transport.UpdateInsert, ID: id, Value: value, Payload: payload})
}

// Delete ships a deletion; value must be the victim's current value.
func (r *RemoteDynamic) Delete(id ID, value Value) error {
	return r.handle.ApplyContext(context.Background(), transport.Update{Kind: transport.UpdateDelete, ID: id, Value: value})
}

// Modify ships an atomic value/payload change.
func (r *RemoteDynamic) Modify(id ID, oldValue, newValue Value, payload []byte) error {
	return r.handle.ApplyContext(context.Background(), transport.Update{Kind: transport.UpdateModify, ID: id, Value: oldValue, NewValue: newValue, Payload: payload})
}

// Flush seals the server-side pending batch into a fresh epoch and
// commits it durably.
func (r *RemoteDynamic) Flush() error { return r.handle.FlushContext(context.Background()) }

// QueryContext runs a range query on the writable store, returning
// decrypted live tuples (flushed epochs only, like
// Dynamic.QueryContext).
func (r *RemoteDynamic) QueryContext(ctx context.Context, q Range) ([]Tuple, error) {
	return r.handle.QueryRangeContext(ctx, q)
}
