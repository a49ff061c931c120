package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rsse/internal/workload"
)

// stubSession answers every op after 1ms — with err when set, the way a
// session behind a collapsed serving path would.
type stubSession struct{ err error }

func (s stubSession) Do(ctx context.Context, op *workload.Op) (workload.Metrics, error) {
	time.Sleep(time.Millisecond)
	return workload.Metrics{}, s.err
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
