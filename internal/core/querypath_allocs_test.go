package core

import (
	"context"
	"testing"

	"rsse/internal/race"
	"rsse/internal/sse"
)

// TestQueryPathAllocs pins the steady-state allocation counts of the
// standard query-path workloads (the BenchmarkQueryPath and
// BenchmarkQueryBatchPath setups). Every row sits about 10% above its
// count, and at least two above, so normal jitter (GC-evicted sync.Pool
// entries mid-run) passes, but losing the pooled PRF hashers, GGM
// expanders or token arenas trips the guard instead of silently
// regressing the perf trajectory. Since a search response is held flat,
// one byte array and one group-end array from the searcher to the
// demux, the counts are LogBRC 17 (about 40 when its bound was first
// set, twice that), Constant 14 (655 leaves per query, one in seven
// non-empty: 109 with an AES key schedule per hit leaf, 216 before the
// lockstep pass searched them together), Logarithmic-URC 14 (23 with
// AES cells, 29 before its cover was read off the bits of the range, 33
// before the lockstep pass, 42 on the single-range rounds the one query
// protocol replaced), -SRC 22 (29 on single-range rounds) and -SRC-i 25
// (472 on single-range rounds, when SRC-i also scheduled an AES key per
// round-1 pair). The 64-range batch, on a suite-0 Logarithmic-BRC
// index, is 137–138 on a cold stag cache and 17–26 warm, since the
// lanes decrypt into reusable scratch instead of arena chunks (144–145
// and 29–33 before); it plans its covers into one array deduplicated by
// sorting and demultiplexes into one id array and one group-size array
// (425 with a dedup map and slices per range, 664 before the lockstep
// pass).
// parent records each row's count with the response held as one byte
// slice per item.
func TestQueryPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs the full 10k-tuple workload")
	}
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	for _, tc := range []struct {
		name   string
		kind   Kind
		maxOps float64
		parent float64
	}{
		{"LogBRC", LogarithmicBRC, 19, 17},
		{"Constant", ConstantBRC, 16, 15},
		{"LogURC", LogarithmicURC, 16, 14},
		{"LogSRC", LogarithmicSRC, 24, 22},
		{"LogSRCi", LogarithmicSRCi, 28, 27},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, idx, ranges := benchSetup(t, tc.kind)
			i := 0
			got := testing.AllocsPerRun(10, func() {
				client.ResetHistory()
				if _, err := client.QueryContext(context.Background(), idx, ranges[i%len(ranges)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			t.Logf("%.0f objects/op (guard %.0f, parent %.0f)", got, tc.maxOps, tc.parent)
			if got > tc.maxOps {
				t.Errorf("query allocates %.0f objects/op, guard is %.0f — a pooling regression?", got, tc.maxOps)
			}
		})
	}
	t.Run("Batch", func(t *testing.T) {
		client, idx, _ := benchSetup(t, LogarithmicBRC)
		m := uint64(1) << benchBits
		ranges := make([]Range, 64)
		for i := range ranges {
			lo := m/8 + uint64(i)*(m/1024)
			ranges[i] = Range{Lo: lo, Hi: lo + m/10 - 1}
		}
		batch := func() {
			if _, err := client.QueryBatchContext(context.Background(), idx, ranges); err != nil {
				t.Fatal(err)
			}
		}
		// Cold: the process-wide derived-state cache starts empty, as in
		// a fresh process, and admits each stag at its second sight.
		sse.ResetKernelCache()
		cold := testing.AllocsPerRun(5, batch)
		// Warm: every stag is cached.
		for range 3 {
			batch()
		}
		warm := testing.AllocsPerRun(5, batch)
		t.Logf("%.0f objects/op cold (guard 152, parent 145), %.0f warm (guard 29, parent 31)", cold, warm)
		if cold > 152 {
			t.Errorf("64-range batch allocates %.0f objects/op on a cold stag cache, guard is 152 — a per-range allocation?", cold)
		}
		if warm > 29 {
			t.Errorf("64-range batch allocates %.0f objects/op on a warm stag cache, guard is 29 — a per-range allocation?", warm)
		}
	})
}
