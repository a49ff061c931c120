// Package rsse implements Range Searchable Symmetric Encryption: practical
// private range search over outsourced data, reproducing "Practical
// Private Range Search Revisited" (Demertzis, Papadopoulos, Papapetrou,
// Deligiannakis, Garofalakis — SIGMOD 2016).
//
// # Model
//
// A data owner holds tuples (id, value, payload) with values from a
// discrete domain {0..2^bits-1}. The owner encrypts the tuples and an
// index and hands both to an untrusted, honest-but-curious server. Later
// the owner issues range queries [lo, hi]; the server answers them over
// the encrypted index without learning the data distribution, the query
// endpoints, or anything beyond each scheme's precisely defined leakage.
//
// # Schemes
//
// The paper's seven schemes trade storage, query size, search time and
// leakage against each other (its Table 1):
//
//	Scheme             Storage      Query     Search     False positives
//	Quadratic          O(n m^2)     O(1)      O(r)       none
//	Constant-BRC/URC   O(n)         O(log R)  O(R + r)   none
//	Logarithmic-BRC/URC O(n log m)  O(log R)  O(log R+r) none
//	Logarithmic-SRC    O(n log m)   O(1)      O(n)       up to O(n)
//	Logarithmic-SRC-i  O(n log m)   O(1)      O(R + r)   O(R + r)
//
// where n is the dataset size, m the domain size, R the query range size
// and r the result size. Higher rows are generally more secure;
// Logarithmic-SRC-i offers the paper's preferred trade-off.
//
// # Quick start
//
//	client, err := rsse.NewClient(rsse.LogarithmicSRCi, 20) // 2^20 domain
//	if err != nil { ... }
//	index, err := client.BuildIndex([]rsse.Tuple{
//		{ID: 1, Value: 1000, Payload: []byte("alice")},
//		{ID: 2, Value: 2000, Payload: []byte("bob")},
//	})
//	if err != nil { ... }
//	// Ship index to the server; keep client (it holds the keys).
//	res, err := client.QueryContext(ctx, index, rsse.Range{Lo: 500, Hi: 1500})
//	// res.Matches == []rsse.ID{1}
//	tuples, err := client.FetchTuples(ctx, index, res.Matches)
//
// Client aliases the scheme layer's owner type, whose calls are
// BuildIndex, QueryContext, QueryBatchContext, FetchTuples (one chunked
// fetch round), Trapdoor (a round-1 message alone), TrapdoorCost (a
// range's owner-side tokens and bytes) and ResetHistory (clear the
// Constant schemes' intersecting-query guard).
//
// A Client queries any Source: a local *Index, or a *RemoteIndex
// dialed to a server (Dial, DialIndex) — the same QueryContext,
// QueryBatchContext and FetchTuples run each round across the
// connection instead. Every store has one call for a range and one for
// a batch, both context-first. A Source is
// three context-first calls, MetaContext, SearchContext and FetchMany,
// and every index answers all three.
//
// For batched updates with forward privacy (Section 7 of the paper), see
// Dynamic — and OpenDynamic for the durable, crash-recoverable variant.
// The underlying single-keyword SSE construction is pluggable via
// WithSSE; experiments use the TSet construction with the paper's
// parameters.
//
// # Storage engines and serving from disk
//
// The physical layout of an index's records is a server-local choice,
// independent of the query protocol and the leakage profile: every
// engine seals a checksummed segment answered by binary search over its
// bytes. "sorted", the default, keeps it in memory, and a sorted load
// copies the blob once and serves the copy in place; "disk" serves the
// caller's bytes, or a file's mapping, in place. "map" is a deprecated
// alias of "sorted". Select with WithStorage at build time or
// UnmarshalIndexWith at load time.
//
// Serialized indexes (Index.MarshalBinary, wire format v2) are
// containers of in-place-readable segments, whatever engine wrote them:
// a space whose values share one width is a segment of key‖value
// records (segment v2), each SSE label stored at the width its probe
// needs (segment v3), and files written before either still load and
// re-marshal to their own bytes.
// OpenIndexFile(path, "disk") memory-maps a file and serves it with
// near-constant open cost and near-zero resident memory —
//
//	index, err := rsse.OpenIndexFile("users.idx", "disk")
//	defer index.Close()
//
// and Registry.RegisterLazy defers even that until the first query, so
// one process can front a directory holding far more index bytes than
// RAM. Index.Stats and Registry.Stats report per-index sizing for
// operators.
//
// # Sharded clusters
//
// Past one machine's capacity, a Cluster range-partitions the domain
// into k contiguous shards — each an independent index under an
// independently derived key, so a compromised shard key exposes only
// its slice of the domain. Queries split at shard boundaries, run
// concurrently, and merge into one result:
//
//	cluster, err := rsse.BuildCluster(rsse.LogarithmicSRCi, 20, 4, tuples)
//	res, err := cluster.QueryBatchContext(ctx, []rsse.Range{{Lo: 500, Hi: 1500}})
//
// A cluster is k Clients over k Sources and takes a Client's own
// Options: the scheme options apply to every shard client, WithMasterKey
// is the cluster key every shard key derives from, WithQuantileSplit
// picks skew-aware shard boundaries, and WithPartialResults degrades
// instead of failing when a shard is down. The cluster round-trips
// through a key-free ClusterManifest: OpenCluster reopens shards from
// files, and DialCluster connects to remotely served shards via a
// static shard→address table, with WithRetry and WithConnWrapper
// applying to every shard connection. Each intersected shard runs its
// sub-batch in a goroutine of its own. Cluster.FetchTuples decrypts
// matches in one chunked fetch round per shard, and a Dynamic built by
// NewShardedDynamic routes forward-private updates to the shard owning
// each value. Cancelling the context cancels an in-flight scatter; the
// ClusterBatchResult reports per-shard cost and errors (Shards,
// PartialErr) alongside one merged Result per range.
//
// # Multi-attribute queries
//
// A MultiClient answers conjunctive ranges over d attributes, the
// paper's future-work setting, with the standard baseline: one
// independent single-attribute instance per attribute and an owner-side
// intersection. It is d Clients over d Sources: BuildIndex returns one
// *Index per attribute, and QueryContext and FetchTuples take one
// Source per attribute, local or served, and ask the attributes
// concurrently, through the same fan-out a cluster's shards go through.
// QueryContext intersects the sorted per-attribute matches and folds
// the attributes' stats with QueryStats.Add, so MultiResult.Stats.Rounds
// is the largest attribute's round count, not their sum. The server sees each
// attribute's single-attribute leakage plus the per-attribute access
// patterns before intersection (MultiResult.PerAttribute).
//
// # Durable dynamic indexes
//
// A Dynamic created with NewDynamic lives in memory; OpenDynamic roots
// the same forward-private LSM in a directory and makes it a
// restartable service. Every Insert/Delete/Modify is appended to a
// checksummed write-ahead log before it is buffered; Flush seals the
// pending batch into an epoch file and commits via an atomic manifest
// rename; reopening the directory — after a clean Close or a SIGKILL —
// recovers the exact pre-crash state, replaying the WAL tail and
// resuming consolidation:
//
//	d, err := rsse.OpenDynamic("./dyn", rsse.LogarithmicBRC, 16, 0)
//	err = d.Insert(42, 1200, []byte("alice")) // durable once nil is returned
//	err = d.Flush()
//
// WithSyncEvery(n) tunes the WAL fsync policy: n=1 (default) makes
// every acknowledged update durable; larger n raises ingestion
// throughput by orders of magnitude at the cost of the last n-1
// acknowledged updates in a crash. A Modify is one atomic WAL record,
// and OpenShardedDynamic persists a Dynamic's per-shard directories whose
// cross-shard modifications are ordered (tombstone fsynced before the
// insertion is logged), so recovery never resurrects a moved value.
//
// Remote updates: Registry.RegisterWritable serves a writable store,
// rsse.DialDynamic mutates it from another process, and rsse-server
// -writable / rsse-owner put|del|modify|flush|get speak the same
// protocol from the command line. The serving process holds the
// store's keys — it is an owner-side durable write gateway, not the
// untrusted query server; see ARCHITECTURE.md for the trust model and
// the per-epoch leakage note.
//
// # Batched queries
//
// Correlated bursts of range queries share most of their dyadic cover
// nodes. QueryBatchContext plans all covers together, deduplicates the shared
// nodes into one multi-trapdoor per round, and demultiplexes the shared
// response into one Result per range — identical results to a
// sequential loop, a fraction of the tokens, frames and searches:
//
//	br, err := client.QueryBatchContext(ctx, index, []rsse.Range{{0, 99}, {50, 199}})
//	// br.Results[0], br.Results[1]; br.Stats.DedupRatio()
//
// The batch rides one search frame per round against a remote index
// (Client.QueryBatchContext on a *RemoteIndex), one per round per
// intersected shard across a cluster (Cluster.QueryBatchContext), one
// batched sub-query per LSM epoch of each shard
// (Dynamic.QueryBatchContext), and through the cache
// (CachedClient.QueryBatchContext answers covered ranges locally and
// batches the misses to the one Source the cache was built over). The server sees only the deduplicated, jointly
// permuted token union, in the message a single query would send — not
// even the batch size, so strictly less than the equivalent sequential
// queries reveal. A single query is a batch of one: QueryContext runs
// the same protocol on one range.
//
// # The fetch round
//
// Search returns ids; the owner then fetches ciphertexts — to weed out
// the SRC schemes' false positives, to hand documents to the
// application, to download an LSM epoch for consolidation. All of those
// loops are one fetch round: the ids cross the wire in chunks of 128
// per frame (the fetch-many op) with at most two chunks in flight, so a
// Logarithmic-SRC-i query costs two search round trips plus one or two
// fetch frames however many ids the server returned, and the filter
// decrypts only each tuple's first cipher block under a cached key
// schedule. There is nothing to tune. The server sees the same ids, in
// the same order, as one fetch per id would have shown it.
//
// # PRF suites
//
// Every PRF under an index — the Constant schemes' GGM tree, the
// per-keyword key schedule, the cell labels — is of one suite, the
// index's: HMAC-SHA-512 truncated to 32 bytes (SuiteSHA512, the paper's
// choice), HMAC-SHA-256 (SuiteSHA256), suite 2, "sha256-block": a single
// SHA-256 compression of key ‖ tag ‖ counter, with no key schedule at
// all, or suite 3, "sha256-block-pad": suite 2 with every index cell
// padded from that PRF instead of encrypted under AES-CTR, so a search
// that finds a cell schedules no AES key either. BuildIndex gives the
// Constant schemes, Logarithmic-URC, Logarithmic-SRC and
// Logarithmic-SRC-i suite 3, and Logarithmic-BRC and Quadratic the
// paper's; the choice is written into the index header and reported as
// IndexMeta.Suite, and servers and owners read it from there, so an
// index keeps answering under the suite that built it whatever a later
// release builds with, and one client queries indexes of every suite.
// The owner's keyword stags follow the index too: one compression each
// for a suite-2 or suite-3 index, the paper's HMAC for an older one.
// There is nothing to configure. The server's view — tokens, probes,
// labels, cell sizes — has the same shape under each.
//
// # One context-first call per store
//
// Every store has exactly one call for a range and one for a batch,
// and both take a context: Client.QueryContext and
// Client.QueryBatchContext (on any Source, local or remote),
// CachedClient.QueryContext and CachedClient.QueryBatchContext,
// Dynamic.QueryContext and Dynamic.QueryBatchContext (sharded or not),
// RemoteDynamic.QueryContext, MultiClient.QueryContext, and
// Cluster.QueryBatchContext, whose one range is a batch of one. An
// expired context aborts in-flight round trips immediately and the
// late responses are discarded without corrupting the connection.
package rsse
