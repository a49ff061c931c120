package lsm

import (
	"fmt"
	mrand "math/rand"
	"testing"

	"rsse/internal/core"
	"rsse/internal/cover"
)

const benchBits = 16

func openBenchManager(b *testing.B, dir string, syncEvery int) *Manager {
	b.Helper()
	m, err := OpenManager(dir, core.LogarithmicBRC, cover.Domain{Bits: benchBits}, 4, testMaster(b), testOpts(), syncEvery)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// insertN appends n inserts with 32-byte payloads — the pure WAL
// ingestion path, no flush in between.
func insertN(b *testing.B, m *Manager, n int, seed int64) {
	b.Helper()
	rnd := mrand.New(mrand.NewSource(seed))
	payload := make([]byte, 32)
	for i := 0; i < n; i++ {
		if err := m.Insert(uint64(i+1), rnd.Uint64()%(1<<benchBits), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableInsert is the WAL fsync-policy sweep: sustained
// insert throughput under WithSyncEvery ∈ {1, 64, 1024}. Pending
// updates accumulate for the whole run, so bound it with -benchtime=Nx.
func BenchmarkDurableInsert(b *testing.B) {
	for _, syncEvery := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("sync=%d", syncEvery), func(b *testing.B) {
			m := openBenchManager(b, b.TempDir(), syncEvery)
			defer m.Close()
			b.ResetTimer()
			insertN(b, m, b.N, int64(60+syncEvery))
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inserts/s")
			walBytes, _ := m.WALSize()
			b.ReportMetric(float64(walBytes)/float64(b.N), "walB/op")
		})
	}
}

// BenchmarkRecovery is recovery time vs WAL length: one sealed epoch
// with walLen records pending in the log above it; each iteration
// reopens the directory and replays them.
func BenchmarkRecovery(b *testing.B) {
	for _, walLen := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("wal=%d", walLen), func(b *testing.B) {
			dir := b.TempDir()
			m := openBenchManager(b, dir, 1024)
			if err := m.Insert(0, 0, nil); err != nil {
				b.Fatal(err)
			}
			if err := m.Flush(); err != nil {
				b.Fatal(err)
			}
			insertN(b, m, walLen, int64(walLen))
			if err := m.Sync(); err != nil {
				b.Fatal(err)
			}
			walBytes, _ := m.WALSize()
			m.Close() // releases the fd; reopening replays the WAL either way
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := openBenchManager(b, dir, 1024)
				if m.Pending() != walLen {
					b.Fatalf("recovery replayed %d records, want %d", m.Pending(), walLen)
				}
				m.Close()
			}
			b.ReportMetric(float64(walBytes)/(1<<20), "walMB")
		})
	}
}
