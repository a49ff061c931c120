package rsse

import (
	"fmt"
	mrand "math/rand"

	"rsse/internal/core"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// config collects the functional options before they are lowered onto the
// scheme layer.
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
}

// Option customizes a Client or Dynamic store.
type Option func(*config) error

// WithSSE selects the underlying single-keyword SSE construction:
// "basic" (one cell per posting, the default), "packed" (block-packed
// cells), "tset" (the bucketized, padded T-set the paper's experiments
// use) or "2lev" (the dictionary-plus-array layout of Cash et al.
// NDSS'14; 8-byte payloads only, so not usable with LogarithmicSRCi,
// whose auxiliary index stores 40-byte encrypted pairs). The schemes
// treat the construction as a black box.
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
// same index bytes, and none changes the leakage profile.
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
// construction (1..255). Implies WithSSE("packed").
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
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.seed = &seed
		return nil
	}
}

// WithMasterKey fixes the 32-byte master secret instead of drawing a
// random one, e.g. to rebuild a client from stored key material.
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
// size so it leaks only (n, m) — Section 4's padding technique.
func WithQuadraticPadding() Option {
	return func(c *config) error {
		c.padQuadratic = true
		return nil
	}
}

// WithQuadraticMaxBits raises the Quadratic scheme's domain guard (use
// with care: storage grows with the square of the domain size).
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
// regardless of n. Ignored by memory-only stores.
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
// query cost.
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
// experiments only.
func AllowIntersectingQueries() Option {
	return func(c *config) error {
		c.allowInter = true
		return nil
	}
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
// for callers (OpenDynamic) that need the harness-level settings the
// scheme layer never sees, like the WAL fsync policy.
func collectOptions(opts []Option) (config, error) {
	var c config
	for _, o := range opts {
		if err := o(&c); err != nil {
			return config{}, err
		}
	}
	return c, nil
}

func applyOptions(opts []Option) (core.Options, error) {
	c, err := collectOptions(opts)
	if err != nil {
		return core.Options{}, err
	}
	return c.lower()
}
