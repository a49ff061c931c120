package rsse

import (
	"errors"
	"fmt"
	mrand "math/rand"
	"net"

	"rsse/internal/core"
	"rsse/internal/shard"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// config collects the functional options. The scheme settings are
// lowered onto the scheme layer; the rest configure the store, cluster
// or connection that holds the clients.
type config struct {
	sseName      string
	storageName  string
	tsetCapacity int
	tsetExpand   float64
	packedBlock  int
	seed         *int64
	masterKey    []byte
	padQuadratic bool
	allowInter   bool
	quadMaxBits  uint8
	syncEvery    int
	tdMemo       int
	engine       storage.Engine
	policy       shard.Policy
	quantile     bool
	retry        *RetryPolicy
	connWrap     func(net.Conn) net.Conn
}

// Option customizes an owner: a Client, MultiClient, Cluster, Dynamic
// store or dialed RemoteIndex. Each option names the constructors that
// read it; the others ignore it. The scheme options (WithSSE through
// AllowIntersectingQueries, WithMasterKey and WithSyncEvery aside) are
// read by the client constructors — NewClient, NewMultiClient,
// BuildCluster, OpenCluster, DialCluster, NewDynamic, NewShardedDynamic,
// OpenDynamic and OpenShardedDynamic — and apply to every client the
// owner holds: each attribute's, each shard's, each epoch's.
type Option func(*config) error

// WithSSE selects the underlying single-keyword SSE construction:
// "basic" (one cell per posting, the default), "packed" (block-packed
// cells), "tset" (the bucketized, padded T-set the paper's experiments
// use) or "2lev" (the dictionary-plus-array layout of Cash et al.
// NDSS'14; 8-byte payloads only, so not usable with LogarithmicSRCi,
// whose auxiliary index stores 40-byte encrypted pairs). The schemes
// treat the construction as a black box. Read by the client
// constructors.
func WithSSE(name string) Option {
	return func(c *config) error {
		if _, err := sse.ByName(name); err != nil {
			return err
		}
		c.sseName = name
		return nil
	}
}

// WithStorage selects the storage engine of the encrypted dictionaries
// and the tuple store: "sorted" (the default: a sealed, checksummed
// segment in memory, records sorted by key behind a radix directory) or
// "disk" (the same segments, which OpenIndexFile also serves in place
// from a memory-mapped file). "map" is a deprecated alias of "sorted".
// A sorted load copies the index bytes once and serves the copy in
// place. The engine is a server-local choice: every engine writes the
// same index bytes, and none changes the leakage profile. Read by the
// client constructors.
func WithStorage(name string) Option {
	return func(c *config) error {
		if _, err := storage.ByName(name); err != nil {
			return err
		}
		c.storageName = name
		return nil
	}
}

// WithTSetParams sets the T-set bucket capacity S and space expansion
// factor K (the paper uses S = 6000, K = 1.1). Implies WithSSE("tset").
// Read by the client constructors.
func WithTSetParams(bucketCapacity int, expansion float64) Option {
	return func(c *config) error {
		if bucketCapacity < 1 {
			return fmt.Errorf("rsse: bucket capacity %d < 1", bucketCapacity)
		}
		if expansion <= 1 {
			return fmt.Errorf("rsse: expansion %v must exceed 1", expansion)
		}
		c.sseName = "tset"
		c.tsetCapacity = bucketCapacity
		c.tsetExpand = expansion
		return nil
	}
}

// WithPackedBlockSize sets the postings-per-block of the "packed"
// construction (1..255). Implies WithSSE("packed"). Read by the client
// constructors.
func WithPackedBlockSize(b int) Option {
	return func(c *config) error {
		if b < 1 || b > 255 {
			return fmt.Errorf("rsse: packed block size %d outside 1..255", b)
		}
		c.sseName = "packed"
		c.packedBlock = b
		return nil
	}
}

// WithSeed makes shuffles and token permutations deterministic — for
// tests and reproducible experiments only; key material is unaffected.
// Read by the client constructors.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = &seed
		return nil
	}
}

// WithMasterKey fixes the 32-byte master secret instead of drawing a
// random one, e.g. to rebuild a client from stored key material. Read by
// NewClient, NewMultiClient (each attribute's key derives from it) and
// BuildCluster (the cluster key: shard i's key is derived from it, so
// the one key re-creates every shard client). OpenCluster and
// DialCluster take the cluster key as an argument and refuse a
// different one here. The Dynamic constructors refuse it: a store draws
// its own key, and a durable one keeps it in its directory.
func WithMasterKey(key []byte) Option {
	return func(c *config) error {
		if len(key) != 32 {
			return fmt.Errorf("rsse: master key must be 32 bytes, got %d", len(key))
		}
		c.masterKey = append([]byte(nil), key...)
		return nil
	}
}

// WithQuadraticPadding pads the Quadratic index to its maximum possible
// size so it leaks only (n, m) — Section 4's padding technique. Read by
// the client constructors.
func WithQuadraticPadding() Option {
	return func(c *config) error {
		c.padQuadratic = true
		return nil
	}
}

// WithQuadraticMaxBits raises the Quadratic scheme's domain guard (use
// with care: storage grows with the square of the domain size). Read by
// the client constructors.
func WithQuadraticMaxBits(bits uint8) Option {
	return func(c *config) error {
		if bits == 0 {
			return fmt.Errorf("rsse: quadratic max bits must be positive")
		}
		c.quadMaxBits = bits
		return nil
	}
}

// WithSyncEvery sets the write-ahead-log fsync policy of a durable
// Dynamic store (OpenDynamic, OpenShardedDynamic): the WAL fsyncs after
// every n-th logged update. n = 1, the default, makes every
// acknowledged update durable before the call returns; larger n (the
// benchmarks use 64 and 1024) raises sustained update throughput by an
// order of magnitude at the cost of losing at most the last n-1
// acknowledged updates in a crash. Flush always commits durably
// regardless of n. Read by OpenDynamic and OpenShardedDynamic.
func WithSyncEvery(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("rsse: sync interval %d must be at least 1", n)
		}
		c.syncEvery = n
		return nil
	}
}

// WithTrapdoorMemo lets the client memoize up to n ranges' derived
// trapdoors and replay them for repeated queries. Trapdoors are a
// deterministic function of the keys and the range, so a replay sends
// the server what a fresh derivation would (the server already links
// repeated ranges through its search-pattern leakage); only redundant
// owner-side PRF work is skipped. The memo belongs to the client: every
// goroutine querying through the client shares it. 0, the default,
// derives every trapdoor fresh — keep it off when measuring owner-side
// query cost. Read by the client constructors.
func WithTrapdoorMemo(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("rsse: trapdoor memo size %d must not be negative", n)
		}
		c.tdMemo = n
		return nil
	}
}

// AllowIntersectingQueries disables the Constant schemes' client-side
// guard against intersecting queries. The schemes are then no longer
// covered by their adaptive-security argument (Section 5) — intended for
// experiments only. Read by the client constructors.
func AllowIntersectingQueries() Option {
	return func(c *config) error {
		c.allowInter = true
		return nil
	}
}

// WithPartialResults switches a failing shard sub-query from the default
// first-error policy (cancel the rest, fail the query) to a
// partial-result policy: the other shards finish, the merged result
// covers the reachable slices, and the per-shard errors are reported in
// ClusterBatchResult.Shards. Queries still fail when every shard fails.
// Read by BuildCluster, OpenCluster and DialCluster.
func WithPartialResults() Option {
	return func(c *config) error {
		c.policy = shard.Partial
		return nil
	}
}

// WithQuantileSplit splits the domain on the dataset's k-quantiles
// instead of equal-width slices, so each shard holds a near-equal number
// of tuples even under heavy skew (salary- or Zipf-shaped data). Heavy
// ties may collapse adjacent cut points, yielding fewer shards than
// requested; Cluster.Shards reports the actual count. Read by
// BuildCluster (an opened or dialed cluster takes its split from the
// manifest).
func WithQuantileSplit() Option {
	return func(c *config) error {
		c.quantile = true
		return nil
	}
}

// WithRetry makes a dialed handle resilient: sticky-dead connections
// are evicted and redialed, idempotent read ops retry under p with
// capped jittered backoff, ErrOverloaded responses back off on the same
// connection instead of failing over, and (when p.OpTimeout is set)
// each attempt carries its own deadline. Dialing turns lazy: a server
// that is down costs the first op its retries instead of failing the
// dial, so on a cluster an unreachable shard's sub-queries fail typed
// (ErrConnDead), which WithPartialResults then degrades to a partial
// result. The zero policy selects the defaults (4 attempts, 10ms base
// backoff, 1s cap). Read by DialIndexWith and DialCluster.
func WithRetry(p RetryPolicy) Option {
	return func(c *config) error {
		pc := p
		c.retry = &pc
		return nil
	}
}

// WithConnWrapper passes every connection a dialed handle or cluster
// opens through wrap before the transport takes over — the seam chaos
// tests and the load harness use to inject deterministic faults (see
// internal/fault and rsse-load's -fault flag). Read by DialIndexWith
// and DialCluster.
func WithConnWrapper(wrap func(net.Conn) net.Conn) Option {
	return func(c *config) error {
		if wrap == nil {
			return errors.New("rsse: nil conn wrapper")
		}
		c.connWrap = wrap
		return nil
	}
}

// ClusterOption is Option: a cluster takes a client's options.
//
// Deprecated: use Option.
type ClusterOption = Option

// WithClusterKey is WithMasterKey.
//
// Deprecated: use WithMasterKey.
func WithClusterKey(key []byte) Option { return WithMasterKey(key) }

// WithShardConnWrapper is WithConnWrapper.
//
// Deprecated: use WithConnWrapper.
func WithShardConnWrapper(wrap func(net.Conn) net.Conn) Option { return WithConnWrapper(wrap) }

// WithShardOptions applies opts: a cluster takes a client's options
// directly.
//
// Deprecated: pass opts to the cluster constructor.
func WithShardOptions(opts ...Option) Option {
	return func(c *config) error { return apply(c, opts) }
}

// lower converts the collected options into scheme-layer Options.
func (c *config) lower() (core.Options, error) {
	var opts core.Options
	name := c.sseName
	if name == "" {
		name = "basic"
	}
	switch name {
	case "basic":
		opts.SSE = sse.Basic{}
	case "packed":
		opts.SSE = sse.Packed{BlockSize: c.packedBlock}
	case "tset":
		opts.SSE = sse.TSet{BucketCapacity: c.tsetCapacity, Expansion: c.tsetExpand}
	case "2lev":
		opts.SSE = sse.TwoLevel{}
	default:
		return opts, fmt.Errorf("rsse: unknown SSE construction %q", name)
	}
	if c.storageName != "" {
		eng, err := storage.ByName(c.storageName)
		if err != nil {
			return opts, err
		}
		opts.Storage = eng
	}
	if c.engine != nil {
		// An explicitly injected engine (test-only, see WithStorageEngine
		// in export_test.go) overrides the named selection.
		opts.Storage = c.engine
	}
	if c.seed != nil {
		opts.Rand = mrand.New(mrand.NewSource(*c.seed))
	}
	opts.MasterKey = c.masterKey
	opts.PadQuadratic = c.padQuadratic
	opts.AllowIntersecting = c.allowInter
	opts.QuadraticMaxBits = c.quadMaxBits
	opts.TrapdoorMemo = c.tdMemo
	return opts, nil
}

// collectOptions folds the option list into a config without lowering —
// for callers (the Dynamic, cluster and dial constructors) that need the
// settings the scheme layer never sees, like the WAL fsync policy.
func collectOptions(opts []Option) (config, error) {
	var c config
	if err := apply(&c, opts); err != nil {
		return config{}, err
	}
	return c, nil
}

// apply folds opts into c in order.
func apply(c *config, opts []Option) error {
	for _, o := range opts {
		if err := o(c); err != nil {
			return err
		}
	}
	return nil
}

func applyOptions(opts []Option) (core.Options, error) {
	c, err := collectOptions(opts)
	if err != nil {
		return core.Options{}, err
	}
	return c.lower()
}
