// Command rsse-load is the load instrument: a multi-client open-loop
// driver that hammers a live rsse-server with a declarative workload
// spec and reports latency histograms, the sustained QPS of the spec's
// capacity phase and leakage counters, as text and as JSON. It gates on
// no committed number (comparing commits is benchmark/'s job); it exits
// non-zero only when its own report is unsound (workload.ValidateReport).
//
// Run the bundled uniform and zipf specs against a server (the scheme,
// domain and index name are discovered from the server's metadata; only
// the owner key is local):
//
//	rsse-load -addr 127.0.0.1:7070 -keyfile table.key \
//	    -workloads uniform,zipf -json load.json
//
// Run a spec file (see internal/workload.Spec for the format):
//
//	rsse-load -addr 127.0.0.1:7070 -keyfile table.key -spec soak.json
//
// Shrink every phase for a smoke run:
//
//	rsse-load ... -scale 0.2
//
// Drive a sharded cluster instead of a single index by passing the
// cluster manifest; each session dials the cluster once:
//
//	rsse-load -addr 127.0.0.1:7070 -manifest users.cluster.json \
//	    -keyfile cluster.key -workloads hotspot
//
// Run under fault injection: -fault points at a JSON fault plan (see
// internal/fault.Plan) that every load connection is wrapped in, and
// -retry makes read sessions resilient so the run survives the chaos —
// killed connections redial, idempotent reads retry, failed writes are
// never re-sent (at-most-once), and the injector's tally lands in the
// report notes:
//
//	rsse-load ... -fault plan.json -retry 6 -op-timeout 2s
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"

	"rsse"
	"rsse/internal/fault"
	"rsse/internal/obs"
	"rsse/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "server address")
		name       = flag.String("name", rsse.DefaultIndexName, "served index name")
		keyfile    = flag.String("keyfile", "", "hex master key file (required)")
		workloads  = flag.String("workloads", "uniform,zipf", "comma-separated builtin workload specs")
		specPath   = flag.String("spec", "", "JSON workload spec file (overrides -workloads)")
		scale      = flag.Float64("scale", 1, "multiply every phase duration (0.2 = smoke run)")
		jsonPath   = flag.String("json", "", "write the machine-readable report here")
		manifest   = flag.String("manifest", "", "cluster manifest: drive the whole cluster instead of one index")
		writeName  = flag.String("writable-name", rsse.DefaultDynamicName, "writable-store name for write_fraction ops (rsse-server -writable)")
		opsAddr    = flag.String("ops-addr", "", "server ops address (rsse-server -ops): scrape /metrics before and after the run and embed the delta in the report")
		tdMemo     = flag.Int("td-memo", 16384, "per-session trapdoor memo capacity (0 derives every trapdoor fresh)")
		faultPath  = flag.String("fault", "", "JSON fault plan (internal/fault.Plan): wrap every load connection in deterministic fault injection")
		retry      = flag.Int("retry", 0, "resilient sessions: attempts per idempotent read op (0 disables redial/retry)")
		opTimeout  = flag.Duration("op-timeout", 0, "per-attempt deadline of resilient reads (0: none; required to recover black-holed connections)")
		cpuprofile = flag.String("cpuprofile", "", "write a driver-side CPU profile here (the driver shares the box's CPU with the server; profile both)")
		version    = flag.Bool("version", false, "print version and exit")
		notes      multiFlag
	)
	flag.Var(&notes, "note", "free-form provenance line embedded in the report's notes (repeatable)")
	flag.Parse()
	if *version {
		fmt.Println("rsse-load", obs.Info())
		return
	}
	profiles, err := obs.StartProfiles(*cpuprofile, "")
	if err != nil {
		fatal(err)
	}
	stopProfiles = profiles.Stop
	defer profiles.Stop()
	if *keyfile == "" {
		fatal(fmt.Errorf("-keyfile is required"))
	}
	keyHex, err := os.ReadFile(*keyfile)
	if err != nil {
		fatal(err)
	}
	key, err := hex.DecodeString(strings.TrimSpace(string(keyHex)))
	if err != nil {
		fatal(fmt.Errorf("keyfile: %w", err))
	}

	specs, err := loadSpecs(*specPath, *workloads, *scale)
	if err != nil {
		fatal(err)
	}

	env, err := discover(*addr, *name, *manifest, key)
	if err != nil {
		fatal(err)
	}
	env.tdMemo = *tdMemo
	env.writableName = *writeName
	if *faultPath != "" {
		plan, err := fault.LoadPlan(*faultPath)
		if err != nil {
			fatal(err)
		}
		env.injector = fault.New(plan)
	}
	if *retry > 0 {
		env.retry = &rsse.RetryPolicy{MaxAttempts: *retry, OpTimeout: *opTimeout}
	} else if env.injector != nil {
		fmt.Fprintln(os.Stderr, "rsse-load: -fault without -retry: sessions will NOT recover killed connections")
	}
	for _, spec := range specs {
		if spec.WriteFraction > 0 && *manifest != "" {
			fatal(fmt.Errorf("workload %s: write_fraction is not supported against a cluster (no cluster update protocol)", spec.Name))
		}
	}
	report := workload.NewLoadReport(env.kind.String(), env.bits)
	var before map[string]float64
	if *opsAddr != "" {
		if before, err = obs.Scrape(*opsAddr); err != nil {
			fatal(fmt.Errorf("ops scrape before run: %w", err))
		}
	}
	ctx := context.Background()
	for _, spec := range specs {
		fmt.Fprintf(os.Stderr, "rsse-load: workload %s against %s\n", spec.Name, *addr)
		run, err := drive(ctx, env, *addr, spec)
		if err != nil {
			fatal(err)
		}
		report.Runs = append(report.Runs, *run)
	}

	report.Notes = notes
	if env.injector != nil {
		st := env.injector.Stats()
		report.Notes = append(report.Notes,
			fmt.Sprintf("fault: plan=%s seed=%d conns=%d drops=%d closes=%d blackholes=%d delays=%d truncations=%d",
				*faultPath, env.injector.Plan().Seed, st.Conns, st.Drops, st.Closes, st.BlackHoles, st.Delays, st.Truncations))
	}

	if *opsAddr != "" {
		after, err := obs.Scrape(*opsAddr)
		if err != nil {
			fatal(fmt.Errorf("ops scrape after run: %w", err))
		}
		// The delta is the server's own view of the run: counters as
		// after−before, gauges at their final value. It lands in the
		// report so client-observed and server-observed numbers (requests
		// vs ops, leakage tokens vs LeakageCounters) can be cross-checked
		// from one artifact.
		report.ServerMetrics = obs.Delta(before, after)
	}

	report.Print(os.Stdout)
	if err := emit(report, *jsonPath); err != nil {
		fatal(err)
	}
}

// emit writes the finished report to jsonPath (when set) and validates
// it. An unsound report — a capacity phase that completed nothing — is
// still written, as evidence, and its error makes the run exit non-zero.
func emit(report *workload.LoadReport, jsonPath string) error {
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		return err
	}
	if jsonPath != "" {
		if err := os.WriteFile(jsonPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rsse-load: report written to %s\n", jsonPath)
	}
	return workload.ValidateReport(buf.Bytes())
}

// loadSpecs resolves the requested workloads and applies the duration
// scale.
func loadSpecs(specPath, names string, scale float64) ([]*workload.Spec, error) {
	var specs []*workload.Spec
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		s, err := workload.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	} else {
		for _, n := range strings.Split(names, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			s, err := workload.Builtin(n)
			if err != nil {
				return nil, fmt.Errorf("%w\navailable workloads: %s", err, strings.Join(workload.BuiltinNames(), " "))
			}
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("rsse-load: no workloads selected")
	}
	if scale != 1 {
		for _, s := range specs {
			for i := range s.Phases {
				d := int(float64(s.Phases[i].DurationMS) * scale)
				if d < 50 {
					d = 50
				}
				s.Phases[i].DurationMS = d
			}
		}
	}
	return specs, nil
}

// env is everything discovered once and shared by all sessions.
type env struct {
	kind         rsse.Kind
	bits         uint8
	name         string
	key          []byte
	manifest     string
	man          rsse.ClusterManifest
	tdMemo       int
	writableName string
	// injector wraps every session connection when -fault is set; its
	// stats land in the report notes. retry, when set, makes sessions
	// resilient (-retry/-op-timeout). The discovery connection stays
	// clean either way.
	injector *fault.Injector
	retry    *rsse.RetryPolicy
}

// discover connects once to learn the scheme and domain so the load
// clients configure themselves from the server's own metadata.
func discover(addr, name, manifest string, key []byte) (*env, error) {
	e := &env{name: name, key: key, manifest: manifest}
	if manifest != "" {
		man, err := rsse.ReadClusterManifest(manifest)
		if err != nil {
			return nil, err
		}
		e.man = man
		cl, err := rsse.DialCluster("tcp", addr, man, key)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		e.kind = cl.Kind()
		e.bits = cl.Domain().Bits
		return e, nil
	}
	r, err := rsse.DialIndex("tcp", addr, name)
	if err != nil {
		return nil, fmt.Errorf("rsse-load: %s: %w", addr, err)
	}
	defer r.Close()
	meta, err := r.MetaContext(context.Background())
	if err != nil {
		return nil, fmt.Errorf("rsse-load: meta: %w", err)
	}
	e.kind, e.bits = meta.Kind, meta.DomainBits
	return e, nil
}

// drive runs one spec against addr.
func drive(ctx context.Context, e *env, addr string, spec *workload.Spec) (*workload.RunReport, error) {
	r := &workload.Runner{
		Spec: spec,
		Bits: e.bits,
		NewSession: func() (workload.Session, error) {
			if e.manifest != "" {
				return newClusterSession(e, addr)
			}
			return newNodeSession(e, addr, spec.WriteFraction > 0)
		},
		OnPhase: func(p workload.PhaseReport) {
			fmt.Fprintf(os.Stderr, "  %-10s %9.1f qps  p99 %8.0fµs  err %d  shed %d\n",
				p.Name, p.QPS, p.Latency.P99Us, p.Errors, p.Shed)
		},
	}
	return r.Run(ctx)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, "; ") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// nodeSession is one multiplexed connection to a single served index
// and one owner Client, both shared by every in-flight slot of the
// session: the connection and the client are safe for concurrent use.
// The client allows intersecting queries, so it keeps no history. With
// writes enabled the session also dials the update namespace on the
// same address (RemoteDynamic is safe for concurrent use as-is).
type nodeSession struct {
	remote *rsse.RemoteIndex
	client *rsse.Client

	// The write path is deliberately NOT resilient: an errored update's
	// fate is unknown (it may have reached the WAL before the connection
	// died), so it is never re-sent — the op just counts as an error.
	// What redial buys here is that the NEXT write gets a fresh
	// connection instead of the sticky-dead one killing the whole run.
	dynMu   sync.Mutex
	dyn     *rsse.RemoteDynamic
	redials int
	dynDial func() (*rsse.RemoteDynamic, error)
}

func newNodeSession(e *env, addr string, writes bool) (*nodeSession, error) {
	var dialOpts []rsse.Option
	if e.injector != nil {
		dialOpts = append(dialOpts, rsse.WithConnWrapper(e.injector.Wrap))
	}
	if e.retry != nil {
		dialOpts = append(dialOpts, rsse.WithRetry(*e.retry))
	}
	remote, err := rsse.DialIndexWith("tcp", addr, e.name, dialOpts...)
	if err != nil {
		return nil, err
	}
	client, err := rsse.NewClient(e.kind, e.bits,
		rsse.WithMasterKey(e.key), rsse.AllowIntersectingQueries(),
		rsse.WithTrapdoorMemo(e.tdMemo))
	if err != nil {
		remote.Close()
		return nil, err
	}
	s := &nodeSession{remote: remote, client: client}
	if writes {
		s.dynDial = func() (*rsse.RemoteDynamic, error) {
			return rsse.DialDynamic("tcp", addr, e.writableName)
		}
		if e.injector != nil {
			wrap, name := e.injector.Wrap, e.writableName
			s.dynDial = func() (*rsse.RemoteDynamic, error) {
				nc, err := new(net.Dialer).Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return rsse.NewRemoteDynamic(wrap(nc), name), nil
			}
		}
		if s.dyn, err = s.dynDial(); err != nil {
			remote.Close()
			return nil, fmt.Errorf("write path (is the server running with -writable?): %w", err)
		}
	}
	return s, nil
}

func (s *nodeSession) Do(ctx context.Context, op *workload.Op) (workload.LeakageCounters, error) {
	if w := op.Write; w != nil {
		// Writes carry no query-leakage counters; latency is what the
		// harness measures (acknowledged per the server's fsync policy).
		return workload.LeakageCounters{}, s.write(w)
	}
	if len(op.Ranges) == 1 {
		res, err := s.client.QueryContext(ctx, s.remote, op.Ranges[0])
		if err != nil {
			return workload.LeakageCounters{}, err
		}
		return queryMetrics(res.Stats), nil
	}
	br, err := s.client.QueryBatchContext(ctx, s.remote, op.Ranges)
	if err != nil {
		return workload.LeakageCounters{}, err
	}
	return batchMetrics(br.Stats, br.Results), nil
}

// queryMetrics is what one single-range query cost in leakage terms.
func queryMetrics(st rsse.QueryStats) workload.LeakageCounters {
	return workload.LeakageCounters{
		Tokens:         uint64(st.Tokens),
		TokenBytes:     uint64(st.TokenBytes),
		ResponseItems:  uint64(st.ResponseItems),
		RawIDs:         uint64(st.Raw),
		FalsePositives: uint64(st.FalsePositives),
	}
}

// batchMetrics is queryMetrics for one batched op (tokens after dedup).
func batchMetrics(st rsse.BatchStats, results []*rsse.Result) workload.LeakageCounters {
	m := workload.LeakageCounters{
		Tokens:        uint64(st.UniqueTokens),
		TokenBytes:    uint64(st.TokenBytes),
		ResponseItems: uint64(st.ResponseItems),
		RawIDs:        uint64(st.FetchedTuples),
	}
	for _, res := range results {
		m.FalsePositives += uint64(res.Stats.FalsePositives)
	}
	return m
}

// write sends one update. On a dead connection the failed op is NOT
// re-sent (its fate is unknown — at-most-once); the session redials so
// subsequent writes get a live connection instead of the corpse.
func (s *nodeSession) write(w *workload.WriteOp) error {
	s.dynMu.Lock()
	defer s.dynMu.Unlock()
	if s.dyn == nil {
		return fmt.Errorf("write op without a write path")
	}
	var err error
	if w.Del {
		err = s.dyn.Delete(w.ID, w.Value)
	} else {
		err = s.dyn.Insert(w.ID, w.Value, w.Payload)
	}
	if err != nil {
		s.dyn.Close()
		if fresh, derr := s.dynDial(); derr == nil {
			s.dyn = fresh
			s.redials++
		}
	}
	return err
}

func (s *nodeSession) Close() error {
	s.dynMu.Lock()
	if s.dyn != nil {
		s.dyn.Close()
	}
	s.dynMu.Unlock()
	return s.remote.Close()
}

// clusterSession drives a whole sharded cluster through one dialled
// Cluster, shared by every in-flight slot of the session: a Cluster is
// safe for concurrent use. Like a node session's client, its shard
// clients allow intersecting queries, so they keep no history.
type clusterSession struct {
	cl *rsse.Cluster
}

func newClusterSession(e *env, addr string) (*clusterSession, error) {
	clOpts := []rsse.Option{rsse.AllowIntersectingQueries()}
	if e.injector != nil {
		clOpts = append(clOpts, rsse.WithConnWrapper(e.injector.Wrap))
	}
	if e.retry != nil {
		clOpts = append(clOpts, rsse.WithRetry(*e.retry), rsse.WithPartialResults())
	}
	cl, err := rsse.DialCluster("tcp", addr, e.man, e.key, clOpts...)
	if err != nil {
		return nil, err
	}
	return &clusterSession{cl: cl}, nil
}

func (s *clusterSession) Do(ctx context.Context, op *workload.Op) (workload.LeakageCounters, error) {
	if op.Write != nil {
		return workload.LeakageCounters{}, fmt.Errorf("write ops are not supported against a cluster")
	}
	// One batched scatter: one search frame per round per intersected shard.
	br, err := s.cl.QueryBatchContext(ctx, op.Ranges)
	if err != nil {
		return workload.LeakageCounters{}, err
	}
	if len(op.Ranges) == 1 {
		return queryMetrics(br.Results[0].Stats), nil
	}
	return batchMetrics(br.Stats, br.Results), nil
}

func (s *clusterSession) Close() error { return s.cl.Close() }

// stopProfiles finalizes the -cpuprofile output; fatal exits route
// through it so a failed run still leaves a valid profile.
var stopProfiles = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rsse-load:", err)
	stopProfiles()
	os.Exit(2)
}
