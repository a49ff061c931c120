package rsse

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/lsm"
	"rsse/internal/prf"
	"rsse/internal/shard"
	"rsse/internal/wal"
)

// Dynamic is the updatable store of Section 7: updates are buffered into
// batches, every flushed batch becomes an independent static index under
// a fresh key, and batches consolidate hierarchically (an s-ary
// log-structured merge tree, as in Vertica-style bulk loading).
//
// The construction achieves forward privacy — a search token issued
// before an update cannot match data added after it — using only the
// static schemes of this module, with at most O(s·log_s b) active indexes
// after b batches.
//
// A store may be range-partitioned into shards (NewShardedDynamic,
// OpenShardedDynamic): each shard runs its own LSM with its own epochs
// and derived keys, and every update routes to the shard owning the
// tuple's value. A modification whose old and new values live on
// different shards splits into a tombstone on the old owner and an
// insertion on the new one — the cross-shard move is two ordinary
// single-shard updates, so per-shard forward privacy is untouched.
// NewDynamic and OpenDynamic build a store of one shard.
//
// A Dynamic store created with NewDynamic lives in memory only; one
// opened with OpenDynamic is durable: every update hits a checksummed
// write-ahead log before it is buffered, sealed epochs persist as index
// files, and reopening the directory recovers the exact pre-crash
// state. See OpenDynamic for the recovery semantics.
//
// A Dynamic store is not safe for concurrent use (Registry.
// RegisterWritable wraps one in a serializing adapter for serving); a
// sharded store's queries still fan out over its shards in parallel
// internally.
type Dynamic struct {
	shards
	stores []*lsm.Manager // one per shard
}

// UpdateStats aggregates the per-epoch costs of one query over a Dynamic
// store.
type UpdateStats = lsm.QueryStats

// DefaultConsolidationStep is the consolidation step s used when 0 is
// passed to NewDynamic: small enough to merge frequently (good under
// deletions), large enough to amortize re-encryption.
const DefaultConsolidationStep = 4

// NewDynamic creates an updatable store for the given scheme and domain.
// consolidationStep is the paper's parameter s (how many sibling indexes
// trigger a merge); pass 0 for the default. Options apply to every
// per-epoch client; per-epoch keys are derived internally.
func NewDynamic(kind Kind, domainBits uint8, consolidationStep int, opts ...Option) (*Dynamic, error) {
	return newMemoryDynamic(kind, domainBits, 1, consolidationStep, opts, func(master prf.Key, _ int) prf.Key { return master })
}

// NewShardedDynamic creates a sharded updatable store with the given
// number of equal-width shards. consolidationStep and opts apply to
// every shard's LSM; each shard's epoch keys derive from its own master,
// itself derived from a fresh cluster key.
func NewShardedDynamic(kind Kind, domainBits uint8, shards, consolidationStep int, opts ...Option) (*Dynamic, error) {
	return newMemoryDynamic(kind, domainBits, shards, consolidationStep, opts, shardMaster)
}

// newMemoryDynamic builds a memory-only store under a fresh master key;
// shard i's epoch keys derive from key(master, i).
func newMemoryDynamic(kind Kind, domainBits uint8, shards, step int, opts []Option, key func(prf.Key, int) prf.Key) (*Dynamic, error) {
	m, cfg, err := dynamicParams(domainBits, shards, opts)
	if err != nil {
		return nil, err
	}
	master, err := prf.NewKey(nil)
	if err != nil {
		return nil, err
	}
	return newDynamic(m, cfg, func(i int, lowered core.Options) (*lsm.Manager, error) {
		return lsm.NewManagerWithMaster(kind, m.Domain(), stepOrDefault(step), key(master, i), lowered)
	})
}

// dynamicParams resolves what every constructor checks before it
// touches a key or a directory: the domain, split into equal-width
// shards, and the options, which may not fix the master key. A durable
// store's WAL fsyncs after every update unless WithSyncEvery says
// otherwise.
func dynamicParams(domainBits uint8, shards int, opts []Option) (shard.Map, config, error) {
	dom, err := cover.NewDomain(domainBits)
	if err != nil {
		return shard.Map{}, config{}, err
	}
	m, err := shard.EqualWidth(dom, shards)
	if err != nil {
		return shard.Map{}, config{}, err
	}
	cfg, err := collectOptions(opts)
	if err != nil {
		return shard.Map{}, config{}, err
	}
	if cfg.masterKey != nil {
		return shard.Map{}, config{}, errors.New("rsse: a Dynamic store draws its own key (a durable one keeps it in its directory); WithMasterKey does not apply")
	}
	if cfg.syncEvery == 0 {
		cfg.syncEvery = 1
	}
	return m, cfg, nil
}

// newDynamic builds a store over m, shard i's manager from open.
// Options are lowered once per shard: shards query concurrently, so
// each needs a shuffle source of its own (see core.Options.Rand). If a
// shard fails to open, the shards that did are closed — releasing their
// WALs' advisory locks, so that a same-process retry does not hit
// ErrLocked on every earlier one.
func newDynamic(m shard.Map, cfg config, open func(i int, lowered core.Options) (*lsm.Manager, error)) (*Dynamic, error) {
	d := &Dynamic{shards: shards{m}, stores: make([]*lsm.Manager, 0, m.K())}
	for i := range m.K() {
		lowered, err := cfg.lower()
		var s *lsm.Manager
		if err == nil {
			s, err = open(i, lowered)
		}
		if err != nil {
			d.Close()
			return nil, err
		}
		d.stores = append(d.stores, s)
	}
	return d, nil
}

// stepOrDefault maps a consolidation step of 0 to the default.
func stepOrDefault(step int) int {
	if step == 0 {
		return DefaultConsolidationStep
	}
	return step
}

// shardMaster is shard i's epoch-key master, derived from the store's
// cluster key.
func shardMaster(cluster prf.Key, i int) prf.Key {
	return prf.DeriveN(cluster, "cluster/dynamic", uint64(i))
}

// MasterKeyFileName is the hex-encoded master secret OpenDynamic keeps
// inside a durable directory; ClusterKeyFileName is its OpenSharded-
// Dynamic counterpart at the root. The directory therefore holds key
// material: it is OWNER-side state (or state of a trusted write
// gateway), never something to hand to the untrusted query server.
const (
	MasterKeyFileName  = "master.key"
	ClusterKeyFileName = "cluster.key"
)

// DynamicMeta is the recoverable identity of a durable directory: the
// parameters it was created with, readable without any key.
type DynamicMeta struct {
	Kind       Kind
	DomainBits uint8
	Step       int
}

// PeekDynamicDir reads the parameters a durable Dynamic directory was
// created with — how rsse-server adopts an existing directory instead
// of requiring them re-specified. os.IsNotExist(err) distinguishes a
// fresh directory.
func PeekDynamicDir(dir string) (DynamicMeta, error) {
	meta, err := lsm.ReadManagerMeta(dir)
	if err != nil {
		return DynamicMeta{}, err
	}
	return DynamicMeta{Kind: meta.Kind, DomainBits: meta.DomainBits, Step: meta.Step}, nil
}

// OpenDynamic opens (creating if fresh) a durable updatable store
// rooted at dir. Layout: a hex master key (master.key), a checksummed
// write-ahead log (wal.log), one sealed v2 index container per epoch
// (epoch-<seq>.idx) and the epoch manifest (epochs.json) whose atomic
// rename is the commit point of every flush.
//
// Recovery is exact: reopening after a crash loads the persisted
// epochs, replays the WAL tail into the pending buffer (truncating the
// torn record a mid-append crash may leave), skips records the manifest
// already covers, and resumes consolidation where it left off — the
// reopened store answers every query byte-identically to one that
// never crashed. Updates acknowledged under WithSyncEvery(1), the
// default, are never lost; under WithSyncEvery(n) at most the last n-1
// may be.
//
// The parameters must match the directory's manifest on reopen
// (PeekDynamicDir reads them); a mismatch fails rather than corrupting
// the store. Options must repeat whatever construction options
// (WithSSE, WithStorage, ...) the directory was created with.
func OpenDynamic(dir string, kind Kind, domainBits uint8, consolidationStep int, opts ...Option) (*Dynamic, error) {
	m, cfg, err := dynamicParams(domainBits, 1, opts)
	if err != nil {
		return nil, err
	}
	master, err := loadOrCreateKey(dir, MasterKeyFileName)
	if err != nil {
		return nil, err
	}
	return newDynamic(m, cfg, func(_ int, lowered core.Options) (*lsm.Manager, error) {
		return lsm.OpenManager(dir, kind, m.Domain(), stepOrDefault(consolidationStep), master, lowered, cfg.syncEvery)
	})
}

// loadOrCreateKey reads the hex key file inside dir, drawing and
// persisting a fresh one (0600) on first open. Creation is durable
// (fsynced file and directory entry — a key that evaporates in a power
// failure would orphan every epoch committed under it) AND exclusive:
// the key lands via a non-clobbering link, so two processes racing on a
// fresh directory both end up using the one key that won, never a key
// on disk that differs from the key epochs were sealed under.
func loadOrCreateKey(dir, name string) (prf.Key, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return prf.Key{}, err
	}
	path := filepath.Join(dir, name)
	readKey := func() (prf.Key, error) {
		blob, err := os.ReadFile(path)
		if err != nil {
			return prf.Key{}, err
		}
		raw, err := hex.DecodeString(strings.TrimSpace(string(blob)))
		if err != nil {
			return prf.Key{}, fmt.Errorf("rsse: %s: %w", path, err)
		}
		return prf.KeyFromBytes(raw)
	}
	if k, err := readKey(); err == nil {
		return k, nil
	} else if !os.IsNotExist(err) {
		return prf.Key{}, err
	}
	key, err := prf.NewKey(nil)
	if err != nil {
		return prf.Key{}, err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return prf.Key{}, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.WriteString(hex.EncodeToString(key[:]) + "\n"); err != nil {
		tmp.Close()
		return prf.Key{}, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return prf.Key{}, err
	}
	if err := tmp.Close(); err != nil {
		return prf.Key{}, err
	}
	if err := os.Chmod(tmp.Name(), 0o600); err != nil {
		return prf.Key{}, err
	}
	if err := os.Link(tmp.Name(), path); err != nil {
		if os.IsExist(err) {
			return readKey() // another open won the race; use its key
		}
		return prf.Key{}, err
	}
	if err := wal.SyncDir(dir); err != nil {
		return prf.Key{}, err
	}
	return key, nil
}

// shardedManifestName is the root manifest of a durable sharded store,
// recording the topology so reopening with different parameters fails
// instead of mis-deriving shard keys.
const shardedManifestName = "sharded.json"

// shardedManifest is the JSON body of sharded.json.
type shardedManifest struct {
	Version    int    `json:"version"`
	Kind       string `json:"kind"`
	DomainBits uint8  `json:"domain_bits"`
	Shards     int    `json:"shards"`
	Step       int    `json:"step"`
}

// shardDirName is the per-shard subdirectory under a sharded root.
func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// OpenShardedDynamic opens (creating if fresh) a durable sharded
// updatable store rooted at dir: a cluster key and topology manifest at
// the root, one durable Dynamic directory per shard underneath
// (shard-000/, shard-001/, ...), each with its own WAL, epochs and
// manifest — a hot shard's durability traffic never contends with a
// cold one's. Every shard's master derives from the root cluster key,
// so the whole store recovers from one directory tree.
//
// Recovery, parameter validation and the WithSyncEvery policy are as
// for OpenDynamic, applied per shard; the root manifest additionally
// pins the shard count.
func OpenShardedDynamic(dir string, kind Kind, domainBits uint8, shards, consolidationStep int, opts ...Option) (*Dynamic, error) {
	m, cfg, err := dynamicParams(domainBits, shards, opts)
	if err != nil {
		return nil, err
	}
	consolidationStep = stepOrDefault(consolidationStep)
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	manPath := filepath.Join(dir, shardedManifestName)
	if blob, err := os.ReadFile(manPath); err == nil {
		var man shardedManifest
		if err := json.Unmarshal(blob, &man); err != nil {
			return nil, fmt.Errorf("rsse: %s: %w", manPath, err)
		}
		if man.Kind != kind.String() || man.DomainBits != domainBits || man.Shards != shards || man.Step != consolidationStep {
			return nil, fmt.Errorf("%w: root holds %s/2^%d/%d shards/step %d, caller asked %s/2^%d/%d shards/step %d",
				lsm.ErrManifestMismatch, man.Kind, man.DomainBits, man.Shards, man.Step,
				kind, domainBits, shards, consolidationStep)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		blob, err := json.MarshalIndent(shardedManifest{
			Version: 1, Kind: kind.String(), DomainBits: domainBits,
			Shards: shards, Step: consolidationStep,
		}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := lsm.WriteFileDurable(dir, shardedManifestName, blob); err != nil {
			return nil, err
		}
	}
	master, err := loadOrCreateKey(dir, ClusterKeyFileName)
	if err != nil {
		return nil, err
	}
	return newDynamic(m, cfg, func(i int, lowered core.Options) (*lsm.Manager, error) {
		s, err := lsm.OpenManager(filepath.Join(dir, shardDirName(i)), kind, m.Domain(), consolidationStep, shardMaster(master, i), lowered, cfg.syncEvery)
		if err != nil {
			return nil, fmt.Errorf("rsse: opening shard %d: %w", i, err)
		}
		return s, nil
	})
}

// Insert buffers a tuple insertion for the next batch of the shard
// owning value. On a durable store a nil return means the insertion is
// in the write-ahead log, synced per the WithSyncEvery policy — it
// survives a crash.
func (d *Dynamic) Insert(id ID, value Value, payload []byte) error {
	return d.stores[d.m.Owner(value)].Insert(id, value, payload)
}

// Delete buffers a deletion. value must be the victim's current attribute
// value: the tombstone is indexed under it, on the shard where the
// insertion lives, so matching range queries retrieve and cancel the
// victim. Durable stores log before buffering, as with Insert.
func (d *Dynamic) Delete(id ID, value Value) error {
	return d.stores[d.m.Owner(value)].Delete(id, value)
}

// Modify buffers a value/payload change (a tombstone under the old value
// plus an insertion under the new one). When both values belong to one
// shard the pair is one atomic WAL record on a durable store: recovery
// can never keep half a modification. Across shards it becomes a
// tombstone on the old owner plus an insertion on the new one, and the
// two are strictly ordered: the tombstone is logged AND forced to
// stable storage before the insertion is logged. A crash between them
// can therefore lose the not-yet-acknowledged insertion (the tuple is
// gone until retried, as for any unacknowledged update), but it can
// never resurrect the old value — recovery either sees both records or
// only the tombstone, never only the insertion.
func (d *Dynamic) Modify(id ID, oldValue, newValue Value, payload []byte) error {
	oldShard, newShard := d.m.Owner(oldValue), d.m.Owner(newValue)
	if oldShard == newShard {
		return d.stores[oldShard].Modify(id, oldValue, newValue, payload)
	}
	if err := d.stores[oldShard].Delete(id, oldValue); err != nil {
		return err
	}
	// The ordering barrier: per-shard WALs sync independently, so
	// without this a lazy fsync policy could make the insertion durable
	// while the tombstone is still in the page cache.
	if err := d.stores[oldShard].Sync(); err != nil {
		return err
	}
	return d.stores[newShard].Insert(id, newValue, payload)
}

// Flush seals each shard's pending batch into a fresh encrypted index
// and runs any due consolidations. A shard with nothing pending is
// untouched — flushing is per shard, so a hot shard's epochs grow
// independently of a cold one's.
func (d *Dynamic) Flush() error {
	return d.each("flushing", (*lsm.Manager).Flush)
}

// FullConsolidate merges every active index of each shard into one and
// drops tombstones — the periodic global rebuild.
func (d *Dynamic) FullConsolidate() error {
	return d.each("consolidating", (*lsm.Manager).FullConsolidate)
}

// each runs op on every shard in order, stopping at the first failure;
// a sharded store names the failed shard.
func (d *Dynamic) each(what string, op func(*lsm.Manager) error) error {
	for i, s := range d.stores {
		if err := op(s); err != nil {
			if len(d.stores) > 1 {
				err = fmt.Errorf("rsse: %s shard %d: %w", what, i, err)
			}
			return err
		}
	}
	return nil
}

// Query is QueryContext without cancellation.
//
// Deprecated: call QueryContext.
func (d *Dynamic) Query(q Range) ([]Tuple, UpdateStats, error) {
	return d.QueryContext(context.Background(), q)
}

// QueryContext runs the range query against every active index,
// resolves the per-id operation history owner-side (newest operation
// wins, tombstones cancel their victims) and returns the live tuples.
// It is QueryBatchContext on one range.
func (d *Dynamic) QueryContext(ctx context.Context, q Range) ([]Tuple, UpdateStats, error) {
	out, stats, err := d.QueryBatchContext(ctx, []Range{q})
	if err != nil {
		return nil, stats, err
	}
	return out[0], stats, nil
}

// QueryBatchContext answers several ranges in one pass over the active
// indexes: every epoch receives a single batched sub-query with the
// ranges' covers deduplicated, so the LSM's per-epoch fan-out cost is
// paid once per batch instead of once per range. On a sharded store the
// ranges' slices group by owning shard and the shards answer
// concurrently, through the scatter-gather engine cluster queries use.
// Results are per input range, in input order; the per-epoch fan-out
// aborts when ctx is done. Every range is checked against the domain
// first, so an inverted range or one past the domain fails even on a
// store with no flushed epoch.
func (d *Dynamic) QueryBatchContext(ctx context.Context, qs []Range) ([][]Tuple, UpdateStats, error) {
	if err := d.check(qs); err != nil {
		return nil, UpdateStats{}, err
	}
	if len(d.stores) == 1 {
		return d.stores[0].QueryBatch(ctx, qs)
	}
	type answer struct {
		perRange [][]Tuple
		stats    UpdateStats
	}
	tasks := d.m.SplitBatch(qs)
	outcomes, err := shard.Run(ctx, shard.FailFast, len(tasks),
		func(ctx context.Context, i int) (answer, error) {
			tuples, stats, err := d.stores[tasks[i].Shard].QueryBatch(ctx, tasks[i].Ranges)
			return answer{perRange: tuples, stats: stats}, err
		})
	if err != nil {
		return nil, UpdateStats{}, fmt.Errorf("rsse: sharded batch query: %w", err)
	}
	out := make([][]Tuple, len(qs))
	var stats UpdateStats
	for i, o := range outcomes {
		for j, tuples := range o.Res.perRange {
			src := tasks[i].Sources[j]
			out[src] = append(out[src], tuples...)
		}
		s := o.Res.stats
		stats.Indexes += s.Indexes
		stats.Tokens += s.Tokens
		stats.TokenBytes += s.TokenBytes
		stats.Raw += s.Raw
		stats.FalsePositives += s.FalsePositives
	}
	return out, stats, nil
}

// Close syncs and closes the write-ahead log of every shard of a
// durable store (no-op for a memory-only one). Pending updates are NOT
// flushed: they are already durable in the WAL and reopen exactly as
// pending — call Flush first to seal them into an epoch instead.
func (d *Dynamic) Close() error {
	var first error
	for _, s := range d.stores {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Pending returns the number of buffered, unflushed operations.
func (d *Dynamic) Pending() int { return d.sum((*lsm.Manager).Pending) }

// ActiveIndexes returns how many indexes the server currently holds.
func (d *Dynamic) ActiveIndexes() int { return d.sum((*lsm.Manager).ActiveIndexes) }

// Batches returns how many batches have been flushed so far.
func (d *Dynamic) Batches() uint64 {
	var n uint64
	for _, s := range d.stores {
		n += s.Batches()
	}
	return n
}

// TotalIndexSize sums the serialized sizes of all active indexes.
func (d *Dynamic) TotalIndexSize() int { return d.sum((*lsm.Manager).TotalIndexSize) }

// sum adds up a per-shard count.
func (d *Dynamic) sum(count func(*lsm.Manager) int) int {
	n := 0
	for _, s := range d.stores {
		n += count(s)
	}
	return n
}
