package rsse

import (
	"net"
	"strconv"

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

// PerIDOnly hides a source's FetchMany, and its context forms, forcing
// the owner's fetch round onto the one-Fetch-per-id fallback — the
// reference the chunked round is compared to.
type PerIDOnly struct{ Source }

// PipeCluster dials a built cluster's shards over in-process pipes: one
// pipe per shard, each serving that shard's index. With perID every
// shard target's FetchMany is hidden.
func PipeCluster(built *Cluster, perID bool, opts ...ClusterOption) (*Cluster, error) {
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
			c.targets[i] = PerIDOnly{c.targets[i]}
		}
	}
	return c, nil
}
