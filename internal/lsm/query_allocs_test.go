package lsm

import (
	"context"
	mrand "math/rand"
	"testing"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/race"
)

// TestEpochQueryAllocs pins the allocations of the owner's fan-out query
// over nine active epochs (Logarithmic-BRC, 2^16 domain, step 4,
// width-64 ranges). Each epoch is queried through its own client against
// its own index, so the count is per-epoch protocol work plus the owner's
// history merge: measured at 188 objects/op and guarded about 10%
// above, so resolving each epoch through a formatted name (+54) trips
// it, and so does running the epochs concurrently, each on a shuffle
// source of its own (218).
func TestEpochQueryAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	const bits, maxOps = 16, 207
	m, err := NewManager(core.LogarithmicBRC, cover.Domain{Bits: bits}, 4, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(91))
	next := uint64(1)
	flushes := func(n, per int) {
		for f := 0; f < n; f++ {
			for i := 0; i < per; i++ {
				if err := m.Insert(next, rnd.Uint64()%(1<<bits), []byte("payload")); err != nil {
					t.Fatal(err)
				}
				next++
			}
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushes(8, 512)
	flushes(55, 256)
	if n := m.ActiveIndexes(); n != 9 {
		t.Fatalf("%d active epochs, want 9", n)
	}
	ranges := make([]core.Range, 64)
	for i := range ranges {
		lo := rnd.Uint64() % (1<<bits - 64)
		ranges[i] = core.Range{Lo: lo, Hi: lo + 63}
	}
	ctx := context.Background()
	i := 0
	got := testing.AllocsPerRun(50, func() {
		if _, _, err := queryOne(ctx, m, ranges[i%len(ranges)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f objects/op over %d epochs (guard %d)", got, m.ActiveIndexes(), maxOps)
	if got > maxOps {
		t.Errorf("epoch query allocates %.0f objects/op, guard is %d", got, maxOps)
	}
}
