package main

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rsse"
	"rsse/internal/workload"
)

// stubSession answers every op after 1ms — with err when set, the way a
// session behind a collapsed serving path would.
type stubSession struct{ err error }

func (s stubSession) Do(ctx context.Context, op *workload.Op) (workload.LeakageCounters, error) {
	time.Sleep(time.Millisecond)
	return workload.LeakageCounters{}, s.err
}

func (stubSession) Close() error { return nil }

// TestEmitRejectsZeroThroughput drives the bundled uniform spec the way
// main does and hands the report to emit: a run whose every op failed
// is written out (the evidence) and rejected; the same run against a
// session that answers passes. This is the machine-independent check
// rsse-load exits non-zero on.
func TestEmitRejectsZeroThroughput(t *testing.T) {
	run := func(sess workload.Session) *workload.LoadReport {
		specs, err := loadSpecs("", "uniform", 0.05)
		if err != nil {
			t.Fatal(err)
		}
		r := &workload.Runner{
			Spec:       specs[0],
			Bits:       16,
			NewSession: func() (workload.Session, error) { return sess, nil },
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		report := workload.NewLoadReport("Logarithmic-BRC", 16)
		report.Runs = append(report.Runs, *rep)
		return report
	}

	path := filepath.Join(t.TempDir(), "load.json")
	err := emit(run(stubSession{err: errors.New("connection refused")}), path)
	if err == nil || !strings.Contains(err.Error(), "sustained_qps") {
		t.Fatalf("zero-throughput report accepted: %v", err)
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil || !strings.Contains(string(data), `"sustained_qps": 0`) {
		t.Fatalf("rejected report not written for inspection: %v\n%s", rerr, data)
	}

	if err := emit(run(stubSession{}), path); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}
}

// TestSessionsRunUniformSpec drives the bundled uniform spec, shrunk,
// through both session kinds against an in-process server: a node
// session over a Constant-BRC index and a cluster session over a 2-shard
// Constant-URC cluster, each sharing one owner (a Client, a Cluster)
// across every in-flight slot. The spec's ranges intersect, which the
// sessions' owners allow, so no op may fail.
func TestSessionsRunUniformSpec(t *testing.T) {
	const bits = 12
	key := bytes.Repeat([]byte{7}, 32)
	tuples := make([]rsse.Tuple, 2000)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: uint64(i*13) % (1 << bits)}
	}
	reg := rsse.NewRegistry()
	client, err := rsse.NewClient(rsse.ConstantBRC, bits, rsse.WithMasterKey(key))
	if err != nil {
		t.Fatal(err)
	}
	index, err := client.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(rsse.DefaultIndexName, index); err != nil {
		t.Fatal(err)
	}
	cluster, err := rsse.BuildCluster(rsse.ConstantURC, bits, 2, tuples, rsse.WithMasterKey(key))
	if err != nil {
		t.Fatal(err)
	}
	man := cluster.Manifest("load")
	for i, info := range man.Shards {
		if err := reg.Register(info.Name, cluster.ShardIndex(i)); err != nil {
			t.Fatal(err)
		}
	}
	manPath := filepath.Join(t.TempDir(), "load.cluster.json")
	if err := man.WriteFile(manPath); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rsse.NewServer(reg)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		<-served
	})
	addr := l.Addr().String()

	for name, manifest := range map[string]string{"node": "", "cluster": manPath} {
		t.Run(name, func(t *testing.T) {
			specs, err := loadSpecs("", "uniform", 0.05)
			if err != nil {
				t.Fatal(err)
			}
			e, err := discover(addr, rsse.DefaultIndexName, manifest, key)
			if err != nil {
				t.Fatal(err)
			}
			e.tdMemo = 256
			run, err := drive(context.Background(), e, addr, specs[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range run.Phases {
				if p.Errors != 0 || p.Requests == 0 {
					t.Errorf("phase %s: %d requests, %d failed", p.Name, p.Requests, p.Errors)
				}
			}
		})
	}
}
