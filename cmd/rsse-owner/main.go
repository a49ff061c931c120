// Command rsse-owner is the data owner's CLI: it builds encrypted indexes
// from CSV data and queries them, locally or over the network against an
// rsse-server.
//
// Build an index (writes the index file and a hex key file):
//
//	rsse-owner build -scheme Logarithmic-SRC-i -csv data.csv \
//	    -out table.idx -keyfile table.key [-bits 20]
//
// The CSV must have an "id,value" header row, one tuple per line; an
// optional third column is stored as the encrypted payload.
//
// Query a local index file:
//
//	rsse-owner query -index table.idx -keyfile table.key \
//	    -scheme Logarithmic-SRC-i -bits 20 -lo 100 -hi 500
//
// Query a remote rsse-server:
//
//	rsse-owner query -addr 127.0.0.1:7070 -keyfile table.key \
//	    -scheme Logarithmic-SRC-i -bits 20 -lo 100 -hi 500
//
// Run many ranges as ONE batched query — covers shared across the ranges
// are deduplicated into a single multi-trapdoor, and on a remote server
// the whole batch costs one round trip per round:
//
//	rsse-owner query -addr 127.0.0.1:7070 -keyfile table.key \
//	    -scheme Logarithmic-SRC-i -bits 20 -ranges queries.txt
//
// where queries.txt holds one "lo,hi" per line (a bare value is a point
// query; blank lines and #-comments are skipped).
//
// Inspect an index file's operational profile (no key needed — these are
// exactly the stats the server can see anyway):
//
//	rsse-owner stats -index table.idx [-storage disk]
//
// With -storage disk the index is memory-mapped and served in place, so
// "resident" shows near zero — the number to compare against "file" when
// sizing a deployment.
//
// Build a sharded cluster: the domain splits into -shards contiguous
// slices (equal-width, or on dataset quantiles with -split quantile),
// each shard becomes an independent index under an independently derived
// key, and the output directory receives one .idx per shard plus a
// cluster manifest:
//
//	rsse-owner shard build -scheme Logarithmic-SRC-i -csv data.csv \
//	    -shards 4 -outdir ./cluster -name users -keyfile cluster.key
//
// Serve the directory with rsse-server -dir ./cluster; every shard is
// then addressable under its manifest name. Query the cluster — the
// range splits at shard boundaries and the sub-queries run concurrently:
//
//	rsse-owner shard query -manifest ./cluster/users.cluster.json \
//	    -keyfile cluster.key -addr 127.0.0.1:7070 -lo 100 -hi 500
//
// Without -addr the shards are opened from the manifest's directory
// locally.
//
// Mutate a writable server (rsse-server -writable) remotely — each
// update is acknowledged only once the server has it in its write-ahead
// log, so an acknowledged put survives even kill -9 of the server:
//
//	rsse-owner put    -addr 127.0.0.1:7070 -id 42 -value 1200 -payload "alice"
//	rsse-owner del    -addr 127.0.0.1:7070 -id 42 -value 1200
//	rsse-owner modify -addr 127.0.0.1:7070 -id 42 -old 1200 -new 1500
//	rsse-owner flush  -addr 127.0.0.1:7070
//	rsse-owner get    -addr 127.0.0.1:7070 -lo 1000 -hi 2000
//
// put/del/modify buffer on the server; flush seals the pending batch
// into a fresh forward-private epoch (put -flush does both). get
// queries the flushed epochs and prints decrypted live tuples — the
// writable server holds the store's keys (it is the owner's durable
// write gateway), which is why no keyfile appears here.
package main

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rsse"
	"rsse/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "version", "-version", "--version":
		fmt.Println("rsse-owner", obs.Info())
	case "build":
		build(os.Args[2:])
	case "query":
		query(os.Args[2:])
	case "stats":
		stats(os.Args[2:])
	case "put", "del", "modify", "flush", "get":
		dynamic(os.Args[1], os.Args[2:])
	case "shard":
		if len(os.Args) < 3 {
			usage()
		}
		switch os.Args[2] {
		case "build":
			shardBuild(os.Args[3:])
		case "query":
			shardQuery(os.Args[3:])
		default:
			usage()
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rsse-owner build|query|stats|put|del|modify|flush|get|shard build|shard query|version [flags] (see package docs)")
	os.Exit(2)
}

// dynamic runs one remote-update subcommand against a writable server.
func dynamic(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "writable rsse-server address")
	name := fs.String("name", rsse.DefaultDynamicName, "writable store name on the server")
	id := fs.Uint64("id", 0, "tuple id (put, del, modify)")
	value := fs.Uint64("value", 0, "tuple value (put) / current value (del)")
	oldValue := fs.Uint64("old", 0, "current value (modify)")
	newValue := fs.Uint64("new", 0, "new value (modify)")
	payload := fs.String("payload", "", "tuple payload (put, modify)")
	lo := fs.Uint64("lo", 0, "range lower bound (get)")
	hi := fs.Uint64("hi", 0, "range upper bound (get)")
	doFlush := fs.Bool("flush", false, "also seal the pending batch after the update")
	_ = fs.Parse(args)

	remote, err := rsse.DialDynamic("tcp", *addr, *name)
	if err != nil {
		fatal(err)
	}
	defer remote.Close()

	switch cmd {
	case "put":
		err = remote.Insert(*id, *value, []byte(*payload))
		if err == nil {
			fmt.Printf("rsse-owner: put id %d value %d (durably logged)\n", *id, *value)
		}
	case "del":
		err = remote.Delete(*id, *value)
		if err == nil {
			fmt.Printf("rsse-owner: del id %d value %d (durably logged)\n", *id, *value)
		}
	case "modify":
		err = remote.Modify(*id, *oldValue, *newValue, []byte(*payload))
		if err == nil {
			fmt.Printf("rsse-owner: modify id %d: %d → %d (durably logged)\n", *id, *oldValue, *newValue)
		}
	case "flush":
		err = remote.Flush()
		if err == nil {
			fmt.Println("rsse-owner: flushed pending batch into a fresh epoch")
		}
	case "get":
		var tuples []rsse.Tuple
		if tuples, err = remote.QueryContext(context.Background(), rsse.Range{Lo: *lo, Hi: *hi}); err == nil {
			fmt.Printf("get [%d, %d]: %d live tuples\n", *lo, *hi, len(tuples))
			for _, t := range tuples {
				fmt.Printf("  %d\t%d\t%s\n", t.ID, t.Value, t.Payload)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	if *doFlush && cmd != "flush" && cmd != "get" {
		if err := remote.Flush(); err != nil {
			fatal(err)
		}
		fmt.Println("rsse-owner: flushed pending batch into a fresh epoch")
	}
}

// shardBuild partitions the CSV across -shards independent indexes and
// writes them with the cluster manifest and master key.
func shardBuild(args []string) {
	fs := flag.NewFlagSet("shard build", flag.ExitOnError)
	scheme := fs.String("scheme", "Logarithmic-SRC-i", "scheme name (see rsse.Kinds)")
	csvPath := fs.String("csv", "", "input CSV: id,value[,payload] with header (required)")
	shards := fs.Int("shards", 4, "number of shards to split the domain into")
	split := fs.String("split", "equal", "domain split policy: equal|quantile")
	outdir := fs.String("outdir", ".", "output directory for shard .idx files and the manifest")
	name := fs.String("name", "table", "cluster base name (shards serve as <name>-shard-<i>)")
	keyfile := fs.String("keyfile", "cluster.key", "output cluster master key file (hex)")
	bits := fs.Uint("bits", 0, "domain bits; 0 = fit to max value")
	sseName := fs.String("sse", "tset", "SSE construction: basic|packed|tset")
	_ = fs.Parse(args)
	if *csvPath == "" {
		fatal(fmt.Errorf("-csv is required"))
	}
	kind, err := rsse.KindByName(*scheme)
	if err != nil {
		fatal(err)
	}
	tuples, maxValue, err := readCSV(*csvPath)
	if err != nil {
		fatal(err)
	}
	domBits := uint8(*bits)
	if domBits == 0 {
		domBits = rsse.FitDomain(maxValue).Bits
	}
	opts := []rsse.Option{rsse.WithSSE(*sseName)}
	switch *split {
	case "equal":
	case "quantile":
		opts = append(opts, rsse.WithQuantileSplit())
	default:
		fatal(fmt.Errorf("unknown -split %q (equal|quantile)", *split))
	}
	cluster, err := rsse.BuildCluster(kind, domBits, *shards, tuples, opts...)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatal(err)
	}
	man := cluster.Manifest(*name)
	var totalMB float64
	for i := 0; i < cluster.Shards(); i++ {
		blob, err := cluster.ShardIndex(i).MarshalBinary()
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*outdir, man.Shards[i].Name+".idx")
		if err := os.WriteFile(path, blob, 0o600); err != nil {
			fatal(err)
		}
		s := cluster.ShardIndex(i).Stats()
		totalMB += float64(s.IndexBytes) / (1 << 20)
		fmt.Printf("rsse-owner: shard %d %v  %6d tuples → %s\n",
			i, cluster.ShardRange(i), s.N, path)
	}
	manPath := filepath.Join(*outdir, *name+".cluster.json")
	if err := man.WriteFile(manPath); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*keyfile, []byte(hex.EncodeToString(cluster.MasterKey())+"\n"), 0o600); err != nil {
		fatal(err)
	}
	fmt.Printf("rsse-owner: %d tuples → %d shards (%s, domain 2^%d, %s split, %.1f MB total); manifest %s, key %s\n",
		len(tuples), cluster.Shards(), kind, domBits, *split, totalMB, manPath, *keyfile)
}

// shardQuery runs a scatter-gather range query over a cluster, either
// against a remote server fleet (-addr and/or per-shard manifest addrs)
// or over the shard files next to the manifest.
func shardQuery(args []string) {
	fs := flag.NewFlagSet("shard query", flag.ExitOnError)
	manifest := fs.String("manifest", "", "cluster manifest file (required)")
	keyfile := fs.String("keyfile", "cluster.key", "cluster master key file (hex)")
	addr := fs.String("addr", "", "default rsse-server address for shards without a pinned addr; empty = open shard files locally")
	engine := fs.String("storage", "sorted", "storage engine for locally opened shards: "+strings.Join(rsse.StorageEngines(), "|"))
	lo := fs.Uint64("lo", 0, "range lower bound")
	hi := fs.Uint64("hi", 0, "range upper bound")
	partial := fs.Bool("partial", false, "return partial results when a shard fails instead of failing the query")
	payloads := fs.Bool("payloads", false, "fetch and print decrypted payloads")
	_ = fs.Parse(args)
	if *manifest == "" {
		fatal(fmt.Errorf("-manifest is required"))
	}
	man, err := rsse.ReadClusterManifest(*manifest)
	if err != nil {
		fatal(err)
	}
	keyHex, err := os.ReadFile(*keyfile)
	if err != nil {
		fatal(err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(keyHex)))
	if err != nil {
		fatal(fmt.Errorf("keyfile: %w", err))
	}
	var opts []rsse.Option
	if *partial {
		opts = append(opts, rsse.WithPartialResults())
	}

	var cluster *rsse.Cluster
	remote := *addr != ""
	for _, s := range man.Shards {
		remote = remote || s.Addr != ""
	}
	if remote {
		cluster, err = rsse.DialCluster("tcp", *addr, man, key, opts...)
	} else {
		dir := filepath.Dir(*manifest)
		cluster, err = rsse.OpenCluster(man, key, func(i int, info rsse.ClusterShardInfo) (*rsse.Index, error) {
			return rsse.OpenIndexFile(filepath.Join(dir, info.Name+".idx"), *engine)
		}, opts...)
	}
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()

	q := rsse.Range{Lo: *lo, Hi: *hi}
	br, err := cluster.QueryBatchContext(context.Background(), []rsse.Range{q})
	if err != nil {
		fatal(err)
	}
	res := br.Results[0]
	fmt.Printf("query %v over %d shards: %d matches (%d sub-queries, %d tokens, %d token bytes, %d false positives dropped)\n",
		q, cluster.Shards(), len(res.Matches), len(br.Shards),
		res.Stats.Tokens, res.Stats.TokenBytes, res.Stats.FalsePositives)
	for _, s := range br.Shards {
		status := "ok"
		if s.Err != nil {
			status = "FAILED: " + s.Err.Error()
		}
		own := cluster.ShardRange(s.Shard)
		slice := rsse.Range{Lo: max(q.Lo, own.Lo), Hi: min(q.Hi, own.Hi)}
		fmt.Printf("  shard %d %v: %d tokens, %d response items  [%s]\n",
			s.Shard, slice, s.Stats.UniqueTokens, s.Stats.ResponseItems, status)
	}
	if !*payloads {
		for _, id := range res.Matches {
			fmt.Printf("  %d\n", id)
		}
		return
	}
	tuples, err := cluster.FetchTuples(context.Background(), res.Matches)
	if err != nil {
		fatal(err)
	}
	for _, tup := range tuples {
		fmt.Printf("  %d\t%d\t%s\n", tup.ID, tup.Value, tup.Payload)
	}
}

// stats opens an index file on the chosen storage engine and prints its
// operational profile.
func stats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	indexPath := fs.String("index", "", "index file (required)")
	engine := fs.String("storage", "sorted",
		"storage engine to load onto: "+strings.Join(rsse.StorageEngines(), "|"))
	_ = fs.Parse(args)
	if *indexPath == "" {
		fatal(fmt.Errorf("-index is required"))
	}
	index, err := rsse.OpenIndexFile(*indexPath, *engine)
	if err != nil {
		fatal(err)
	}
	defer index.Close()
	s := index.Stats()
	meta, _ := index.MetaContext(context.Background()) // a local index's meta cannot fail
	fmt.Printf("scheme:    %v\n", s.Kind)
	fmt.Printf("prf suite: %d (%v)\n", meta.Suite, meta.Suite)
	fmt.Printf("tuples:    %d\n", s.N)
	fmt.Printf("postings:  %d\n", s.Postings)
	mb := func(n int) float64 { return float64(n) / (1 << 20) }
	fmt.Printf("index:     %.2f MB serialized: %.2f MB labels + %.2f MB cells + %d B headers (T-set padding %.2f MB of them; directory %.2f MB besides)\n",
		mb(s.IndexBytes), mb(s.LabelBytes), mb(s.CellBytes), s.HeaderBytes, mb(s.SlackBytes), mb(s.DirBytes))
	fmt.Printf("store:     %.2f MB serialized\n", mb(s.StoreBytes))
	fmt.Printf("engine:    %s\n", s.Engine)
	fmt.Printf("resident:  %.2f MB heap\n", float64(s.Resident)/(1<<20))
	fmt.Printf("file:      %.2f MB on disk\n", float64(s.FileBytes)/(1<<20))
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	scheme := fs.String("scheme", "Logarithmic-SRC-i", "scheme name (see rsse.Kinds)")
	csvPath := fs.String("csv", "", "input CSV: id,value[,payload] with header (required)")
	out := fs.String("out", "table.idx", "output index file")
	keyfile := fs.String("keyfile", "table.key", "output master key file (hex)")
	bits := fs.Uint("bits", 0, "domain bits; 0 = fit to max value")
	sseName := fs.String("sse", "tset", "SSE construction: basic|packed|tset")
	_ = fs.Parse(args)
	if *csvPath == "" {
		fatal(fmt.Errorf("-csv is required"))
	}
	kind, err := rsse.KindByName(*scheme)
	if err != nil {
		fatal(err)
	}
	tuples, maxValue, err := readCSV(*csvPath)
	if err != nil {
		fatal(err)
	}
	domBits := uint8(*bits)
	if domBits == 0 {
		domBits = rsse.FitDomain(maxValue).Bits
	}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		fatal(err)
	}
	client, err := rsse.NewClient(kind, domBits,
		rsse.WithMasterKey(key), rsse.WithSSE(*sseName))
	if err != nil {
		fatal(err)
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		fatal(err)
	}
	blob, err := index.MarshalBinary()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, blob, 0o600); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*keyfile, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
		fatal(err)
	}
	fmt.Printf("rsse-owner: %d tuples → %s (%s, domain 2^%d, %.1f MB index); key in %s\n",
		len(tuples), *out, kind, domBits, float64(index.Size())/(1<<20), *keyfile)
}

func query(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	scheme := fs.String("scheme", "Logarithmic-SRC-i", "scheme name")
	indexPath := fs.String("index", "", "local index file (or use -addr)")
	addr := fs.String("addr", "", "remote rsse-server address (or use -index)")
	name := fs.String("name", rsse.DefaultIndexName, "served index name on the remote server")
	keyfile := fs.String("keyfile", "table.key", "master key file (hex)")
	bits := fs.Uint("bits", 20, "domain bits the index was built with")
	lo := fs.Uint64("lo", 0, "range lower bound")
	hi := fs.Uint64("hi", 0, "range upper bound")
	rangesPath := fs.String("ranges", "", "file of \"lo,hi\" lines: run all ranges as one batched query (overrides -lo/-hi)")
	payloads := fs.Bool("payloads", false, "fetch and print decrypted payloads")
	_ = fs.Parse(args)
	kind, err := rsse.KindByName(*scheme)
	if err != nil {
		fatal(err)
	}
	keyHex, err := os.ReadFile(*keyfile)
	if err != nil {
		fatal(err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(keyHex)))
	if err != nil {
		fatal(fmt.Errorf("keyfile: %w", err))
	}
	client, err := rsse.NewClient(kind, uint8(*bits), rsse.WithMasterKey(key))
	if err != nil {
		fatal(err)
	}

	var src rsse.Source
	if *addr != "" {
		remote, err := rsse.DialIndex("tcp", *addr, *name)
		if err != nil {
			fatal(err)
		}
		defer remote.Close()
		src = remote
	} else if *indexPath != "" {
		index, err := rsse.OpenIndexFile(*indexPath, "sorted")
		if err != nil {
			fatal(err)
		}
		defer index.Close()
		src = index
	} else {
		fatal(fmt.Errorf("one of -index or -addr is required"))
	}

	printMatches := func(ids []rsse.ID) {
		if !*payloads {
			for _, id := range ids {
				fmt.Printf("  %d\n", id)
			}
			return
		}
		tuples, err := client.FetchTuples(context.Background(), src, ids)
		if err != nil {
			fatal(err)
		}
		for _, tup := range tuples {
			fmt.Printf("  %d\t%d\t%s\n", tup.ID, tup.Value, tup.Payload)
		}
	}

	if *rangesPath != "" {
		ranges, err := readRanges(*rangesPath)
		if err != nil {
			fatal(err)
		}
		br, err := client.QueryBatchContext(context.Background(), src, ranges)
		if err != nil {
			fatal(err)
		}
		s := br.Stats
		fmt.Printf("batch of %d ranges: %d cover nodes deduped to %d tokens (%.2fx), %d rounds, %d token bytes, %d tuples fetched for filtering\n",
			s.Ranges, s.CoverNodes, s.UniqueTokens, s.DedupRatio(), s.Rounds, s.TokenBytes, s.FetchedTuples)
		for i, res := range br.Results {
			fmt.Printf("range %v: %d matches (%d false positives dropped)\n",
				ranges[i], len(res.Matches), res.Stats.FalsePositives)
			printMatches(res.Matches)
		}
		return
	}

	q := rsse.Range{Lo: *lo, Hi: *hi}
	res, err := client.QueryContext(context.Background(), src, q)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("query %v: %d matches (%d rounds, %d token bytes, %d false positives dropped)\n",
		q, len(res.Matches), res.Stats.Rounds, res.Stats.TokenBytes, res.Stats.FalsePositives)
	printMatches(res.Matches)
}

// readRanges parses a batch file: one "lo,hi" (or "lo hi", or a bare
// value for a point query) per line; blank lines and #-comments skipped.
func readRanges(path string) ([]rsse.Range, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []rsse.Range
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.FieldsFunc(line, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
		if len(parts) != 1 && len(parts) != 2 {
			return nil, fmt.Errorf("bad range line %q (want \"lo,hi\")", line)
		}
		lo, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound in %q: %w", line, err)
		}
		hi := lo
		if len(parts) == 2 {
			if hi, err = strconv.ParseUint(parts[1], 10, 64); err != nil {
				return nil, fmt.Errorf("bad bound in %q: %w", line, err)
			}
		}
		out = append(out, rsse.Range{Lo: lo, Hi: hi})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no ranges", path)
	}
	return out, sc.Err()
}

// readCSV parses "id,value[,payload]" lines after a header row.
func readCSV(path string) ([]rsse.Tuple, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var tuples []rsse.Tuple
	var maxValue uint64
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(strings.ToLower(line), "id,") {
				continue // header
			}
		}
		parts := strings.SplitN(line, ",", 3)
		if len(parts) < 2 {
			return nil, 0, fmt.Errorf("bad CSV line %q", line)
		}
		id, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad id in %q: %w", line, err)
		}
		value, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad value in %q: %w", line, err)
		}
		t := rsse.Tuple{ID: id, Value: value}
		if len(parts) == 3 {
			t.Payload = []byte(parts[2])
		}
		if value > maxValue {
			maxValue = value
		}
		tuples = append(tuples, t)
	}
	return tuples, maxValue, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rsse-owner:", err)
	os.Exit(1)
}
