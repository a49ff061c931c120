// Command rsse-server serves serialized encrypted indexes (produced by
// rsse-owner build) to remote data owners. The server holds no keys: it
// can execute searches and return encrypted tuples, and learns nothing
// beyond the schemes' formal leakage.
//
// Serve a single index under the default name:
//
//	rsse-server -index table.idx -listen 127.0.0.1:7070
//
// Serve every *.idx file in a directory as one multi-index process, each
// index named after its file (salaries.idx → "salaries"; owners address
// one with rsse.DialIndex):
//
//	rsse-server -dir ./indexes -listen 127.0.0.1:7070
//
// A corrupt or unreadable file in the directory is logged and skipped —
// one bad index never takes the others down.
//
// A directory produced by rsse-owner shard build serves a whole cluster:
// each shard file loads as an ordinary named index (users-shard-0, ...),
// and any *.cluster.json manifest found alongside is summarized at
// startup — including shards the manifest pins to other servers, which
// is how one cluster spreads across a fleet. The server needs no shard
// configuration; the owner's manifest carries the topology.
//
// With -writable the server additionally hosts a durable dynamic store
// (Section 7 updates with forward privacy) that remote owners mutate
// via rsse-owner put/del/modify — every update is fsynced into the
// store's write-ahead log before it is acknowledged (tune with -sync),
// and SIGKILL at any moment loses nothing acknowledged: restarting the
// server on the same directory replays the log and resumes exactly.
//
//	rsse-server -writable ./dyn -scheme Logarithmic-BRC -bits 16 \
//	    -listen 127.0.0.1:7070
//
// An existing directory's parameters are adopted from its manifest, so
// restarts need only -writable. NOTE the trust model: a writable
// directory holds the store's master key, so a writable server is an
// owner-side durable write gateway, not the untrusted query server of
// the paper — deploy it with the owner's infrastructure (see
// ARCHITECTURE.md).
//
// Indexes load onto the read-optimized "sorted" storage engine by
// default. With -storage disk the server memory-maps v2 index files and
// serves them in place: directory mode then defers each file's open to
// its first query (-preload forces everything up front), so a multi-GB
// directory starts serving instantly and pays memory only for the
// indexes traffic actually touches. Per-index resident vs. file bytes
// are logged at load time.
//
// With -ops the server binds a second HTTP listener exposing the
// operational surface: Prometheus metrics on /metrics (request rates
// and latency histograms per op, dispatch queue depth, WAL and epoch
// state, and the per-index server-observed leakage counters), liveness
// on /healthz, readiness on /readyz (503 while draining), and the
// standard pprof handlers under /debug/pprof/. The ops port quantifies
// the deployment's leakage at full resolution and pprof is a remote
// profiling oracle — bind it to operator-trusted networks only:
//
//	rsse-server -dir ./indexes -ops 127.0.0.1:9090
//
// Diagnostics go to stderr as structured logs (-log-format text|json);
// -slow-query logs every request slower than the threshold with its op,
// index and duration.
//
// SIGINT/SIGTERM trigger a graceful shutdown: /readyz flips to 503
// first, -drain-grace gives load balancers time to observe it, then
// listeners close and in-flight requests finish and flush before
// connections drop (shed requests get overload responses, not errors).
// -cpuprofile and -memprofile write pprof profiles of the serving
// process, finalized during graceful shutdown — or grab one live from
// /debug/pprof/profile on the ops port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rsse"
	"rsse/internal/obs"
	"rsse/internal/prf"
)

// logger is the process-wide structured logger, configured from
// -log-format before any serving starts.
var logger *slog.Logger

// profiles owns the optional -cpuprofile/-memprofile outputs. It is a
// package variable so fatal() can finalize them: without that, any
// error exit (bad index file, port in use, failed shutdown) would
// leave a truncated, unreadable CPU profile behind.
var profiles *obs.Profiles

func main() {
	indexPath := flag.String("index", "", "serialized index file, served as \"default\"")
	dir := flag.String("dir", "", "directory of .idx files, each served under its basename")
	listen := flag.String("listen", "127.0.0.1:7070", "listen address")
	ops := flag.String("ops", "", "ops listen address for /metrics, /healthz, /readyz and /debug/pprof (operator-trusted networks only)")
	engine := flag.String("storage", "sorted",
		"storage engine for loaded indexes: "+strings.Join(rsse.StorageEngines(), "|"))
	preload := flag.Bool("preload", false, "with -dir -storage disk: open every index at startup instead of on first query")
	prefetch := flag.Bool("prefetch", false, "with -storage disk: madvise each opened index's mapping into the page cache ahead of traffic (trades resident memory for warm first queries)")
	drain := flag.Duration("drain", 10*time.Second, "max time to drain in-flight requests on shutdown")
	drainGrace := flag.Duration("drain-grace", 0, "time to stay up (not-ready on /readyz) before draining, so load balancers stop routing first")
	writable := flag.String("writable", "", "durable dynamic store directory to host for remote updates")
	writableName := flag.String("writable-name", rsse.DefaultDynamicName, "update-namespace name the writable store serves under")
	scheme := flag.String("scheme", "Logarithmic-BRC", "with -writable on a fresh directory: scheme of the dynamic store")
	bits := flag.Uint("bits", 16, "with -writable on a fresh directory: domain bits of the dynamic store")
	step := flag.Int("step", 0, "with -writable on a fresh directory: consolidation step (0 = default)")
	syncEvery := flag.Int("sync", 1, "with -writable: fsync the WAL every N updates (1 = every acknowledged update is durable)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	slowQuery := flag.Duration("slow-query", 0, "log requests whose execution exceeds this threshold (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the serving process to this file (finalized on every exit path: drain, signal, fatal)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on graceful shutdown")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println("rsse-server", obs.Info())
		return
	}
	var err error
	if logger, err = setupLogging(*logFormat, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "rsse-server:", err)
		os.Exit(2)
	}
	// Profile finalization must run on every exit path — graceful drain,
	// signal, fatal error — or the CPU profile file is empty. obs.Profiles
	// is idempotent, so the racing paths can all call Stop.
	if profiles, err = obs.StartProfiles(*cpuProfile, *memProfile); err != nil {
		fatal(err)
	}
	if *indexPath != "" && *dir != "" {
		fmt.Fprintln(os.Stderr, "rsse-server: -index and -dir are mutually exclusive")
		os.Exit(2)
	}
	if *indexPath == "" && *dir == "" && *writable == "" {
		fmt.Fprintln(os.Stderr, "rsse-server: one of -index, -dir or -writable is required")
		os.Exit(2)
	}

	reg := rsse.NewRegistry()
	var dyn *rsse.Dynamic
	if *writable != "" {
		if dyn, err = openWritable(*writable, *scheme, uint8(*bits), *step, *syncEvery); err != nil {
			fatal(err)
		}
		if err := reg.RegisterWritable(*writableName, dyn); err != nil {
			fatal(err)
		}
	}
	if *indexPath != "" {
		if err := load(reg, rsse.DefaultIndexName, *indexPath, *engine, *prefetch); err != nil {
			fatal(err)
		}
	} else if *dir != "" {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			fatal(err)
		}
		// The disk engine serves files by mmap, so deferring each open to
		// the first query costs nothing but a page fault later; the
		// sorted engine copies each file, so it loads eagerly and a bad
		// file surfaces at startup.
		lazy := *engine == "disk" && !*preload
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".idx") {
				continue
			}
			name := strings.TrimSuffix(e.Name(), ".idx")
			path := filepath.Join(*dir, e.Name())
			if lazy {
				err = registerLazy(reg, name, path, *engine, *prefetch)
			} else {
				err = load(reg, name, path, *engine, *prefetch)
			}
			if err != nil {
				// One corrupt index must not take down the server.
				logger.Warn("skipping index", "path", path, "err", err)
			}
		}
		if len(reg.Names()) == 0 {
			fatal(fmt.Errorf("no loadable .idx files in %s", *dir))
		}
		logClusters(*dir, reg)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	// Registered before "serving" is logged: a supervisor that signals
	// as soon as it sees that line still gets the graceful path.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	// prf_f says whether the F of suites 2 and 3 runs on SHA-NI or the
	// portable sha256 path: the first thing to check when one box serves
	// such indexes at half another's speed.
	logger.Info("serving", "indexes", len(reg.Names()), "addr", l.Addr().String(),
		"storage", *engine, "version", obs.Version, "prf_f", prf.FImpl())
	if dyn != nil {
		logger.Info("writable store ready", "name", *writableName, "addr", l.Addr().String())
	}

	// The ops endpoint comes up before serving and reports not-ready
	// until the query listener is accepting; build info is registered so
	// every scrape identifies the binary.
	ready := obs.NewReadiness()
	var stopOps func()
	if *ops != "" {
		obs.RegisterBuildInfo(obs.Default)
		bound, stop, err := obs.Serve(*ops, obs.Default, ready)
		if err != nil {
			fatal(err)
		}
		stopOps = stop
		logger.Info("ops endpoint up", "addr", bound)
	}

	srv := rsse.NewServer(reg)
	srv.SetLogger(logger)
	srv.SetSlowQuery(*slowQuery)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	ready.SetReady(true)

	select {
	case s := <-sig:
		// Flip readiness first so traffic directors stop routing, give
		// them -drain-grace to notice, then drain in-flight requests.
		ready.SetReady(false)
		logger.Info("shutdown signal", "signal", s.String(), "grace", *drainGrace, "drain", *drain)
		if *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("forced shutdown", "err", err)
			os.Exit(1)
		}
		if dyn != nil {
			// Pending updates stay pending: they are durable in the WAL
			// and recover exactly on the next start.
			if err := dyn.Close(); err != nil {
				logger.Error("closing writable store", "err", err)
				os.Exit(1)
			}
		}
		if stopOps != nil {
			stopOps()
		}
		stopProfiles()
		logger.Info("drained, bye")
	case err := <-done:
		if err != nil {
			fatal(err)
		}
		if stopOps != nil {
			stopOps()
		}
		stopProfiles()
	}
}

// setupLogging builds the process logger from the -log-format and
// -log-level flags and installs it as the slog default.
func setupLogging(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	l, err := obs.NewLogger(format, os.Stderr, lvl)
	if err != nil {
		return nil, err
	}
	slog.SetDefault(l)
	return l, nil
}

// stopProfiles finalizes the pprof captures, logging (not dying on)
// any write failure: by the time it runs the process is exiting and a
// broken profile must not mask the real exit status.
func stopProfiles() {
	if profiles == nil {
		return
	}
	if err := profiles.Stop(); err != nil && logger != nil {
		logger.Error("finalizing profiles", "err", err)
	}
}

// openWritable opens (creating if fresh) the durable dynamic store. An
// existing directory's manifest parameters win over the flags, so
// restarts need only -writable.
func openWritable(dir, scheme string, bits uint8, step, syncEvery int) (*rsse.Dynamic, error) {
	kind, err := rsse.KindByName(scheme)
	if err != nil {
		return nil, err
	}
	if meta, err := rsse.PeekDynamicDir(dir); err == nil {
		kind, bits, step = meta.Kind, meta.DomainBits, meta.Step
		logger.Info("writable store: adopting manifest", "dir", dir,
			"scheme", kind.String(), "bits", bits, "step", step)
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		logger.Info("writable store: fresh", "dir", dir, "scheme", kind.String(), "bits", bits)
	}
	dyn, err := rsse.OpenDynamic(dir, kind, bits, step, rsse.WithSyncEvery(syncEvery))
	if err != nil {
		return nil, err
	}
	logger.Info("writable store recovered", "dir", dir,
		"epochs", dyn.ActiveIndexes(), "pending", dyn.Pending(), "sync_every", syncEvery)
	return dyn, nil
}

// load reads, parses and registers one index file eagerly. With
// prefetch, a mapped index's pages stream into the page cache now
// instead of faulting in one by one under the first queries.
func load(reg *rsse.Registry, name, path, engine string, prefetch bool) error {
	index, err := rsse.OpenIndexFile(path, engine)
	if err != nil {
		return err
	}
	if prefetch {
		index.Prefetch()
	}
	if err := reg.Register(name, index); err != nil {
		index.Close()
		return err
	}
	logLoaded(name, index)
	return nil
}

// registerLazy validates the file's header now but defers the real open
// — an mmap plus checksum pass — to the first query addressing name.
func registerLazy(reg *rsse.Registry, name, path, engine string, prefetch bool) error {
	meta, err := rsse.PeekIndexFile(path)
	if err != nil {
		return err
	}
	if err := reg.RegisterLazy(name, func() (*rsse.Index, error) {
		index, err := rsse.OpenIndexFile(path, engine)
		if err != nil {
			logger.Warn("lazy open failed", "path", path, "err", err)
			return nil, err
		}
		if prefetch {
			index.Prefetch()
		}
		logLoaded(name, index)
		return index, nil
	}); err != nil {
		return err
	}
	logger.Info("index registered lazily", "index", name,
		"scheme", meta.Kind.String(), "prf_suite", meta.Suite.String(), "tuples", meta.N)
	return nil
}

// logClusters reports the sharded-cluster topology of a served
// directory: every *.cluster.json manifest written by rsse-owner shard
// build is summarized, noting shards whose index files are missing
// locally (they may legitimately live on another server of the fleet —
// the manifest's shard→addr table routes owners there). The server
// needs no cluster configuration to serve shards: each shard is an
// ordinary named index.
func logClusters(dir string, reg *rsse.Registry) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	served := make(map[string]bool)
	for _, name := range reg.Names() {
		served[name] = true
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".cluster.json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		man, err := rsse.ReadClusterManifest(path)
		if err != nil {
			logger.Warn("ignoring cluster manifest", "path", path, "err", err)
			continue
		}
		local := 0
		var missing []string
		for _, s := range man.Shards {
			if served[s.Name] {
				local++
			} else if s.Addr == "" {
				missing = append(missing, s.Name)
			}
		}
		logger.Info("cluster", "name", strings.TrimSuffix(e.Name(), ".cluster.json"),
			"scheme", man.Kind, "bits", man.DomainBits,
			"shards", len(man.Shards), "served_here", local)
		if len(missing) > 0 {
			logger.Warn("cluster shards not served here and not pinned elsewhere",
				"manifest", e.Name(), "missing", strings.Join(missing, ", "))
		}
	}
}

// logLoaded logs one loaded index's operational profile: name, scheme,
// the PRF suite it was built with, tuple count, and where its bytes live
// (resident heap vs. backing file).
func logLoaded(name string, index *rsse.Index) {
	s := index.Stats()
	meta, _ := index.MetaContext(context.Background()) // a local index's meta cannot fail
	logger.Info("index loaded", "index", name, "scheme", s.Kind.String(),
		"prf_suite", meta.Suite.String(),
		"tuples", s.N, "engine", s.Engine,
		"index_mb", float64(s.IndexBytes)/(1<<20),
		"store_mb", float64(s.StoreBytes)/(1<<20),
		"resident_mb", float64(s.Resident)/(1<<20),
		"file_mb", float64(s.FileBytes)/(1<<20))
}

func fatal(err error) {
	if logger != nil {
		logger.Error("fatal", "err", err)
	} else {
		fmt.Fprintln(os.Stderr, "rsse-server:", err)
	}
	stopProfiles()
	os.Exit(1)
}
