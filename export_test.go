package rsse

import (
	"context"
	"net"
	"strconv"

	"rsse/internal/core"
	"rsse/internal/storage"
	"rsse/internal/transport"
)

// Test-only crash hooks: recovery tests simulate SIGKILL by dropping a
// durable store's WAL file descriptor without syncing or flushing —
// on-disk state stays exactly as a crash would leave it, and the WAL's
// advisory lock is released so the same test process can reopen the
// directory.

// Crash abandons every shard of a durable Dynamic as a kill would.
func Crash(d *Dynamic) {
	for _, s := range d.stores {
		s.Abandon()
	}
}

// FlushShard seals shard i's pending batch alone — the state a crash
// between two shards' commits leaves behind.
func FlushShard(d *Dynamic, i int) error { return d.stores[i].Flush() }

// WithStorageEngine injects a concrete storage engine instead of a
// registered name — the conformance harness uses it to slide a
// fault-injecting wrapper (internal/fault.Engine) under a served index
// without adding a production option for it.
func WithStorageEngine(e storage.Engine) Option {
	return func(c *config) error {
		c.engine = e
		return nil
	}
}

// PerIDOnly serves s through the deprecated three-call core.Server and
// core.FromServer's adapter, so the owner's fetch round takes one Fetch
// per id — the reference the chunked round is compared to.
func PerIDOnly(s Source) Source { return core.FromServer(perIDServer{s}) }

// perIDServer is a Source seen through core.Server.
type perIDServer struct{ s Source }

func (p perIDServer) Meta() (IndexMeta, error) { return p.s.MetaContext(context.Background()) }

func (p perIDServer) Search(t *Trapdoor) (*core.Response, error) {
	return p.s.SearchContext(context.Background(), t)
}

func (p perIDServer) Fetch(id ID) ([]byte, bool, error) {
	cts, err := p.s.FetchMany(context.Background(), []ID{id})
	if err != nil {
		return nil, false, err
	}
	return cts[0], cts[0] != nil, nil
}

// PipeCluster dials a built cluster's shards over in-process pipes: one
// pipe per shard, each serving that shard's index. With perID every
// shard target fetches one id at a time (see PerIDOnly).
func PipeCluster(built *Cluster, perID bool, opts ...Option) (*Cluster, error) {
	man := built.Manifest("pipes")
	for i := range man.Shards {
		man.Shards[i].Name = DefaultIndexName
		man.Shards[i].Addr = strconv.Itoa(i)
	}
	pool := transport.NewPoolFunc("pipe", func(_, addr string) (*transport.Conn, error) {
		i, err := strconv.Atoi(addr)
		if err != nil {
			return nil, err
		}
		cliConn, srvConn := net.Pipe()
		go func() { _ = ServeConn(srvConn, built.ShardIndex(i)) }()
		return transport.NewConn(cliConn), nil
	})
	c, cfg, err := clusterFromManifest(man, built.MasterKey(), opts)
	if err != nil {
		return nil, err
	}
	if c, err = finishDialCluster(c, cfg, man, pool, ""); err != nil {
		return nil, err
	}
	for i := range c.targets {
		if perID {
			c.targets[i] = PerIDOnly(c.targets[i])
		}
	}
	return c, nil
}
