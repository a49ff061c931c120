package obs

import (
	"math"
	mrand "math/rand"
	"sync"
	"testing"
	"time"
)

// The one histogram type serves both sides of the client-vs-server
// latency comparison (the server's request timers, rsse-load's phase
// histograms), so the edge cases here pin the bucket layout and the
// quantile rules for both.

// identical reports whether two histograms hold the same samples,
// bucket for bucket.
func identical(a, b *Histogram) bool {
	for i := range a.counts {
		if a.counts[i].Load() != b.counts[i].Load() {
			return false
		}
	}
	return a.Count() == b.Count() && a.Sum() == b.Sum()
}

// within reports whether got is inside the layout's relative error
// (half a sub-bucket, 1/128) of want.
func within(got, want time.Duration) bool {
	return math.Abs(float64(got-want)) <= float64(want)/128
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram reports non-zero stats: count=%d sum=%v", h.Count(), h.Sum())
	}
	for _, q := range []float64{math.NaN(), -1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}

	// Merging an empty histogram must be a no-op in both directions.
	var a, b, before Histogram
	a.Record(100)
	before.Record(100)
	a.Merge(&b)
	if !identical(&a, &before) {
		t.Fatalf("merging an empty histogram changed the target")
	}
	b.Merge(&a)
	if b.Count() != 1 || b.Quantile(0.5) != 100 || b.Quantile(0) != 100 || b.Quantile(1) != 100 {
		t.Fatalf("merge into empty lost the sample: count=%d p50=%v", b.Count(), b.Quantile(0.5))
	}
}

func TestHistogramSingleSample(t *testing.T) {
	for _, v := range []time.Duration{0, 1, 63, 64, 12345, time.Second} {
		var h Histogram
		h.Record(v)
		if h.Count() != 1 || h.Sum() != v {
			t.Fatalf("single sample %v: count=%d sum=%v", v, h.Count(), h.Sum())
		}
		// Every quantile of a one-sample distribution is that sample's
		// bucket — including the out-of-range and NaN requests, which
		// clamp to the lowest and highest occupied bucket instead of
		// converting a negative or NaN rank to an integer.
		mid := h.Quantile(0.5)
		if !within(mid, v) {
			t.Fatalf("single sample %v: p50 %v outside the layout's error", v, mid)
		}
		for _, q := range []float64{math.NaN(), math.Inf(-1), -0.5, 0, 0.01, 0.99, 1, 1.5, math.Inf(1)} {
			if got := h.Quantile(q); got != mid {
				t.Fatalf("single sample %v: Quantile(%v) = %v, want %v", v, q, got, mid)
			}
		}
	}
}

func TestHistogramNegativeSampleClamps(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(0) != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative sample must clamp to 0: sum=%v min=%v max=%v", h.Sum(), h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramCrossOctaveMerge(t *testing.T) {
	// Samples straddling several octaves, split across two histograms in
	// an interleaved pattern: the merge must be exactly the histogram of
	// the union (bucket-by-bucket — same layout, pure addition).
	samples := []time.Duration{
		1, 63, // exact region
		64, 65, 127, // first octave
		128, 255, // next octave
		1 << 20, 1<<20 + 1, // far octave
		time.Second, 2 * time.Second,
	}
	var a, b, all Histogram
	for i, s := range samples {
		if i%2 == 0 {
			a.Record(s)
		} else {
			b.Record(s)
		}
		all.Record(s)
	}
	a.Merge(&b)
	if !identical(&a, &all) {
		t.Fatalf("cross-octave merge differs from recording the union directly")
	}
	if a.Count() != uint64(len(samples)) {
		t.Fatalf("merged count %d, want %d", a.Count(), len(samples))
	}
	if a.Quantile(0) != 1 || !within(a.Quantile(1), 2*time.Second) {
		t.Fatalf("merged extremes min=%v max=%v", a.Quantile(0), a.Quantile(1))
	}
	// The p50 of the union must land within the layout's ~1.6% relative
	// error of the true median (128ns here: rank 5 of 11).
	p50 := float64(a.Quantile(0.5))
	if p50 < 128*0.975 || p50 > 128*1.025 {
		t.Fatalf("merged p50 %v, want ~128ns", a.Quantile(0.5))
	}
}

func TestBucketLayoutRoundTrip(t *testing.T) {
	if NumBuckets != 3776 {
		t.Fatalf("NumBuckets = %d, want 3776", NumBuckets)
	}
	// Every bucket's midpoint must map back into the same bucket, and
	// bucket indexes must be monotone in the value.
	for i := 0; i < NumBuckets; i++ {
		mid := BucketMid(i)
		if got := BucketIndex(mid); got != i {
			t.Fatalf("BucketIndex(BucketMid(%d)=%d) = %d", i, mid, got)
		}
	}
	if got := BucketIndex(math.MaxUint64); got != NumBuckets-1 {
		t.Fatalf("BucketIndex(MaxUint64) = %d, want the last bucket %d", got, NumBuckets-1)
	}
	prev := -1
	for _, v := range []uint64{0, 1, 63, 64, 100, 128, 1 << 10, 1 << 32, 1<<63 + 1} {
		idx := BucketIndex(v)
		if idx <= prev && v != 0 {
			t.Fatalf("BucketIndex not monotone at %d: %d <= %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistogramExactBelow64(t *testing.T) {
	var h Histogram
	for v := 0; v < 64; v++ {
		h.Record(time.Duration(v))
	}
	if h.Count() != 64 {
		t.Fatalf("count = %d", h.Count())
	}
	// Below 64ns every value has its own bucket, so quantiles — the
	// extremes included — are exact.
	if h.Quantile(0) != 0 || h.Quantile(1) != 63 {
		t.Fatalf("min/max = %v/%v", h.Quantile(0), h.Quantile(1))
	}
	if got := h.Quantile(0.5); got != 32 {
		t.Fatalf("p50 = %v, want 32", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rnd := mrand.New(mrand.NewSource(1))
	samples := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		// Log-uniform over [1µs, 100ms] — spans 17 octaves.
		v := time.Duration(math.Exp(rnd.Float64()*math.Log(1e5)) * 1e3)
		h.Record(v)
		samples = append(samples, float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		// Exact quantile by selection.
		k := int(q * float64(len(samples)))
		exact := quickSelect(append([]float64(nil), samples...), k)
		if rel := math.Abs(got-exact) / exact; rel > 0.02 {
			t.Errorf("q%.3f: hist %v exact %v (rel err %.3f)", q, got, exact, rel)
		}
	}
}

func quickSelect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return a[k]
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	rnd := mrand.New(mrand.NewSource(2))
	for i := 0; i < 5000; i++ {
		v := time.Duration(rnd.Intn(1e7))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		all.Record(v)
	}
	a.Merge(&b)
	if !identical(&a, &all) {
		t.Fatal("merged histogram diverges from directly-recorded one")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("q%v: merged %v direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

func TestHistogramRecordNoAlloc(t *testing.T) {
	var h Histogram
	n := testing.AllocsPerRun(1000, func() {
		h.Record(12345 * time.Nanosecond)
	})
	if n != 0 {
		t.Fatalf("Record allocates %v per op", n)
	}
}

// TestHistogramConcurrentRecord: rsse-load's slots share one histogram
// per phase, as the server's workers share one per op — concurrent
// Records lose nothing, and a reader racing them (Quantile, Merge) sees
// a consistent prefix.
func TestHistogramConcurrentRecord(t *testing.T) {
	const workers, each = 8, 5000
	var h, want Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Record(time.Duration(w*each+i) * time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		var snap Histogram
		snap.Merge(&h)
		if max := h.Quantile(1); snap.Quantile(0) > max {
			t.Errorf("snapshot min %v above live max %v", snap.Quantile(0), max)
		}
	}
	wg.Wait()
	for v := 0; v < workers*each; v++ {
		want.Record(time.Duration(v) * time.Microsecond)
	}
	if !identical(&h, &want) {
		t.Fatalf("concurrent recording lost samples: count %d sum %v, want %d %v", h.Count(), h.Sum(), want.Count(), want.Sum())
	}
}
