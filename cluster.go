package rsse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/shard"
)

// Cluster is a range-partitioned deployment of one scheme: the domain
// {0..2^bits-1} is split into k contiguous shards, each shard is an
// independent index built under an independently derived key, and a
// query is answered by splitting the range at shard boundaries, running
// the per-shard sub-queries concurrently, and merging their results.
//
// Sharding buys three things at once: datasets larger than one machine
// (shards resolve to registry names and may live on different servers —
// see DialCluster), build and query parallelism, and a smaller leakage
// scope per key — a compromised shard key exposes only that shard's
// slice of the domain.
//
// A Cluster is safe for concurrent use: its shard clients are, so
// concurrent queries run in parallel on every shard, the same shard
// included.
type Cluster struct {
	shards
	kind    Kind
	master  prf.Key
	clients []*core.Client
	targets []core.Source
	indexes []*Index // local clusters only; nil entries when remote
	policy  shard.Policy
	closers []io.Closer
}

// newCluster wires the owner-side state every construction path shares:
// the shard map, one client per shard under shard.ClientKey(master, i),
// and the failure policy. Options are lowered once per shard, so that each
// shard client draws from a shuffle source of its own (see
// core.Options.Rand).
func newCluster(kind Kind, m shard.Map, master prf.Key, cfg config) (*Cluster, error) {
	c := &Cluster{
		shards:  shards{m},
		kind:    kind,
		master:  master,
		clients: make([]*core.Client, m.K()),
		targets: make([]core.Source, m.K()),
		indexes: make([]*Index, m.K()),
		policy:  cfg.policy,
	}
	for i := range c.clients {
		lowered, err := cfg.lower()
		if err != nil {
			return nil, err
		}
		lowered.MasterKey = shard.ClientKey(master, i)
		client, err := core.NewClient(kind, m.Domain(), lowered)
		if err != nil {
			return nil, err
		}
		c.clients[i] = client
	}
	return c, nil
}

// BuildCluster partitions the domain into the requested number of shards
// (equal-width, or on dataset quantiles with WithQuantileSplit), builds
// each shard as an independent index under its derived key, and returns
// the cluster with every shard attached locally. Shard indexes are
// retrievable with ShardIndex for serving or persisting; tuple ids must
// be unique across the whole cluster, exactly as in a single index.
// WithMasterKey fixes the cluster key; without it a fresh one is drawn
// (Cluster.MasterKey returns it).
func BuildCluster(kind Kind, domainBits uint8, shards int, tuples []Tuple, opts ...Option) (*Cluster, error) {
	dom, err := cover.NewDomain(domainBits)
	if err != nil {
		return nil, err
	}
	cfg, err := collectOptions(opts)
	if err != nil {
		return nil, err
	}
	var master prf.Key
	if cfg.masterKey != nil {
		master, err = prf.KeyFromBytes(cfg.masterKey)
	} else {
		master, err = prf.NewKey(nil)
	}
	if err != nil {
		return nil, err
	}
	seen := make(map[ID]struct{}, len(tuples))
	for _, t := range tuples {
		if !dom.Contains(t.Value) {
			return nil, fmt.Errorf("%w: value %d, domain size %d", ErrValueOutsideDomain, t.Value, dom.Size())
		}
		if _, dup := seen[t.ID]; dup {
			return nil, fmt.Errorf("%w: id %d", ErrDuplicateID, t.ID)
		}
		seen[t.ID] = struct{}{}
	}
	var m shard.Map
	if cfg.quantile {
		values := make([]Value, len(tuples))
		for i, t := range tuples {
			values[i] = t.Value
		}
		m, err = shard.Quantiles(dom, shards, values)
	} else {
		m, err = shard.EqualWidth(dom, shards)
	}
	if err != nil {
		return nil, err
	}
	c, err := newCluster(kind, m, master, cfg)
	if err != nil {
		return nil, err
	}
	parts := make([][]Tuple, m.K())
	for _, t := range tuples {
		s := m.Owner(t.Value)
		parts[s] = append(parts[s], t)
	}
	for i := range parts {
		idx, err := c.clients[i].BuildIndex(parts[i])
		if err != nil {
			return nil, fmt.Errorf("rsse: building shard %d: %w", i, err)
		}
		c.indexes[i] = idx
		c.targets[i] = idx
	}
	return c, nil
}

// OpenCluster re-creates a cluster from its manifest and master key,
// resolving each shard's index through open — typically an OpenIndexFile
// call over the manifest's conventional file names. Use DialCluster when
// the shards are served remotely.
func OpenCluster(man ClusterManifest, masterKey []byte, open func(shardIndex int, info ClusterShardInfo) (*Index, error), opts ...Option) (*Cluster, error) {
	if open == nil {
		return nil, errors.New("rsse: OpenCluster requires an open function")
	}
	c, _, err := clusterFromManifest(man, masterKey, opts)
	if err != nil {
		return nil, err
	}
	for i, info := range man.Shards {
		idx, err := open(i, info)
		if err != nil {
			c.Close() // release the shards opened so far
			return nil, fmt.Errorf("rsse: opening shard %d (%s): %w", i, info.Name, err)
		}
		if idx == nil {
			c.Close()
			return nil, fmt.Errorf("rsse: opening shard %d (%s): nil index", i, info.Name)
		}
		c.indexes[i] = idx
		c.targets[i] = idx
		c.closers = append(c.closers, idx)
	}
	return c, nil
}

// clusterFromManifest builds the owner-side cluster state (map, derived
// clients) described by a manifest, leaving the shard targets unset.
// The resolved config rides along for the dialers, which need the
// connection-level options.
func clusterFromManifest(man ClusterManifest, masterKey []byte, opts []Option) (*Cluster, config, error) {
	kind, err := man.KindValue()
	if err != nil {
		return nil, config{}, err
	}
	m, err := man.MapValue()
	if err != nil {
		return nil, config{}, err
	}
	cfg, err := collectOptions(opts)
	if err != nil {
		return nil, config{}, err
	}
	master, err := prf.KeyFromBytes(masterKey)
	if err != nil {
		return nil, config{}, fmt.Errorf("rsse: cluster master key: %w", err)
	}
	if cfg.masterKey != nil && !bytes.Equal(cfg.masterKey, masterKey) {
		return nil, config{}, errors.New("rsse: WithMasterKey differs from the cluster key given")
	}
	c, err := newCluster(kind, m, master, cfg)
	return c, cfg, err
}

// ClusterManifest is the serializable topology of a cluster: scheme,
// domain, and per shard the served-index name, the owned value interval
// and optionally a server address. It contains no key material.
type ClusterManifest = shard.Manifest

// ClusterShardInfo is one shard's entry in a ClusterManifest.
type ClusterShardInfo = shard.ShardInfo

// ReadClusterManifest loads a manifest written with
// ClusterManifest.WriteFile — the "<base>.cluster.json" file rsse-owner
// writes next to the shard index files.
func ReadClusterManifest(path string) (ClusterManifest, error) {
	return shard.ReadManifest(path)
}

// Manifest records the cluster's topology, naming shard i
// "<base>-shard-<i>", the served-index name an rsse-server gives the
// file it reads from a directory under that name. Write it next to the
// shard index files (or hand it to DialCluster) to reconnect later.
func (c *Cluster) Manifest(base string) ClusterManifest {
	return shard.NewManifest(c.kind, c.m, base)
}

// Kind returns the scheme every shard instantiates.
func (c *Cluster) Kind() Kind { return c.kind }

// Domain returns the full (pre-split) query-attribute domain.
func (c *Cluster) Domain() Domain { return c.m.Domain() }

// MasterKey returns a copy of the cluster master key — persist it (not
// the k derived shard keys) to re-create the cluster's clients later.
func (c *Cluster) MasterKey() []byte { return append([]byte(nil), c.master[:]...) }

// ShardIndex returns shard i's index when the cluster holds it locally
// (built with BuildCluster or opened with OpenCluster), or nil for a
// dialed cluster. Serialize it with Index.MarshalBinary to ship the
// shard to a server.
func (c *Cluster) ShardIndex(i int) *Index { return c.indexes[i] }

// ResetHistory clears the Constant schemes' intersecting-query guard on
// every shard client.
func (c *Cluster) ResetHistory() {
	for _, cl := range c.clients {
		cl.ResetHistory()
	}
}

// Close releases every resource the cluster owns: connections of a
// dialed cluster, file mappings of an opened one. A built cluster has
// nothing to release; Close is always safe.
func (c *Cluster) Close() error {
	var first error
	for _, cl := range c.closers {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.closers = nil
	return first
}

// ErrPartialResult marks a cluster result whose merged matches are
// missing at least one shard's slice: under WithPartialResults the
// query itself succeeds (err == nil, reachable shards merged), and
// this typed error — from ClusterBatchResult.PartialErr — is how
// callers detect and attribute the gap. Detect with errors.Is.
var ErrPartialResult = errors.New("rsse: partial result, one or more shards failed")

// ShardBatchStat is one shard's share of a cluster query: how many
// range slices it answered, its batch-level accounting, and its error
// if the sub-batch failed (possible only under WithPartialResults,
// where the merged results then miss that shard's slices).
type ShardBatchStat struct {
	Shard  int
	Ranges int
	Err    error
	Stats  BatchStats
}

// ClusterBatchResult is a scatter-gather outcome: the embedded
// BatchResult holds one merged Result per input range (in input order)
// and the batch accounting folded over the shards with BatchStats.Add
// (counters sum; Rounds is the per-shard maximum; ServerTime and
// OwnerTime sum across shards, so they measure total work, not wall
// clock), Ranges being the number of input ranges. Shards reports
// the per-shard breakdown in ascending shard order — one entry per
// shard the query intersected.
type ClusterBatchResult struct {
	BatchResult
	Shards []ShardBatchStat
}

// PartialErr returns nil when every intersected shard answered, and a
// typed error wrapping ErrPartialResult (naming the failed shards and
// carrying the first underlying failure) otherwise. The degradation
// ladder: a healthy cluster returns complete results; under
// WithPartialResults a dead shard costs only its slices, surfaced
// here; only when every shard fails does the query itself error.
func (r *ClusterBatchResult) PartialErr() error {
	var ids []string
	var first error
	for _, s := range r.Shards {
		if s.Err != nil {
			ids = append(ids, fmt.Sprint(s.Shard))
			if first == nil {
				first = s.Err
			}
		}
	}
	if first == nil {
		return nil
	}
	// Both errors wrap: callers match the category (ErrPartialResult)
	// and the cause (e.g. ErrConnDead) with one errors.Is each.
	return fmt.Errorf("%w: shard(s) %s: %w", ErrPartialResult, strings.Join(ids, ","), first)
}

// QueryBatchContext answers ranges across the cluster in one batched
// scatter: every range splits at shard boundaries, the slices group by
// owning shard, and each intersected shard receives a single batched
// sub-query with its own trapdoors — one search frame per round per
// shard on remote clusters, instead of one frame per (range, shard)
// pair. Within each shard the covers of that shard's slices are
// deduplicated exactly as in Client.QueryBatchContext, and a range
// inside one shard touches exactly that shard; one range is a batch of
// one. Cancelling ctx aborts the scatter and fails the batch.
func (c *Cluster) QueryBatchContext(ctx context.Context, ranges []Range) (*ClusterBatchResult, error) {
	if err := c.check(ranges); err != nil {
		return nil, err
	}
	tasks := c.m.SplitBatch(ranges)
	outcomes, err := shard.Run(ctx, c.policy, len(tasks),
		func(ctx context.Context, i int) (*core.BatchResult, error) {
			t := tasks[i]
			return c.clients[t.Shard].QueryBatchContext(ctx, c.targets[t.Shard], t.Ranges)
		})
	if err != nil {
		return nil, err
	}
	out := &ClusterBatchResult{
		BatchResult: BatchResult{Results: make([]*Result, len(ranges))},
		Shards:      make([]ShardBatchStat, len(tasks)),
	}
	for i, o := range outcomes {
		t := tasks[i]
		out.Shards[i] = ShardBatchStat{Shard: t.Shard, Ranges: len(t.Ranges), Err: o.Err}
		if o.Res == nil {
			continue
		}
		out.Shards[i].Stats = o.Res.Stats
		out.Stats.Add(o.Res.Stats)
		// A range one shard answered is that shard's result; one that
		// spans shards merges into its first shard's, whose slices are
		// capped, so the merge copies rather than overwrites. Shards
		// partition the domain, so the match sets are disjoint and
		// concatenation in shard order is their union.
		for j, sub := range o.Res.Results {
			dst := &out.Results[t.Sources[j]]
			if *dst == nil {
				*dst = sub
				continue
			}
			r := *dst
			r.Matches = append(r.Matches, sub.Matches...)
			r.Raw = append(r.Raw, sub.Raw...)
			r.Stats.Add(sub.Stats)
		}
	}
	out.Stats.Ranges = len(ranges) // the shards counted their slices
	for i, r := range out.Results {
		if r == nil { // every shard of the range failed (WithPartialResults)
			out.Results[i] = &Result{}
		}
	}
	return out, nil
}

// FetchTuples retrieves and decrypts the tuples stored under ids, in
// order. The owning shard is not derivable from an id alone, so the
// shards are asked in order: each gets the ids no earlier shard held,
// in one chunked fetch round (one frame per 128 ids), and decrypts what
// it holds under its own client. An id that no shard holds fails the
// call, and so does a shard that fails to answer (a dead connection,
// say), rather than masquerading as an absent tuple.
//
// Leakage: shard i sees exactly the ids that shards 0..i-1 do not hold
// — the ids a one-id probe per tuple would have shown it — now in
// chunks rather than one request each.
func (c *Cluster) FetchTuples(ctx context.Context, ids []ID) ([]Tuple, error) {
	out := make([]Tuple, len(ids))
	pending := make([]int, len(ids)) // positions in ids no shard has answered yet
	for i := range pending {
		pending[i] = i
	}
	ask := make([]ID, 0, len(ids))
	for s := 0; s < len(c.clients) && len(pending) > 0; s++ {
		ask = ask[:0]
		for _, p := range pending {
			ask = append(ask, ids[p])
		}
		missing := pending[:0] // filled no faster than pending is read
		err := core.FetchEach(ctx, c.targets[s], ask, func(j int, ct []byte) error {
			p := pending[j]
			if ct == nil {
				missing = append(missing, p)
				return nil
			}
			var err error
			out[p], err = c.clients[s].OpenTuple(ids[p], ct)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("rsse: fetching tuples from shard %d: %w", s, err)
		}
		pending = missing
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("rsse: no tuple with id %d in any shard", ids[pending[0]])
	}
	return out, nil
}

// ClusterShardStat is one shard's operational profile: its value
// interval and its index stats (zero for dialed clusters, whose indexes
// live on remote servers).
type ClusterShardStat struct {
	Shard int
	Range Range
	Stats IndexStats
}

// Stats reports every shard's operational profile, in shard order.
func (c *Cluster) Stats() []ClusterShardStat {
	out := make([]ClusterShardStat, c.m.K())
	for i := range out {
		out[i] = ClusterShardStat{Shard: i, Range: c.m.ShardRange(i)}
		if c.indexes[i] != nil {
			out[i].Stats = c.indexes[i].Stats()
		}
	}
	return out
}
