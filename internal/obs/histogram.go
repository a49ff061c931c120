package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The log-linear bucket layout: exact below 64ns, then 64 sub-buckets
// per octave (~1.6% relative error), covering the full uint64
// nanosecond range in a fixed 3776-bucket array. Indexes are
// continuous: [0, 64) exact, then one 64-wide band per octave up to
// 2^64. Every latency distribution in the system — the server's
// request timers and rsse-load's per-phase histograms — uses this one
// layout, so client-side and server-side quantiles are directly
// comparable.
const (
	histSubBits = 6
	histSubCnt  = 1 << histSubBits // 64 sub-buckets per octave

	// NumBuckets is the fixed bucket count of the layout.
	NumBuckets = (64 - histSubBits + 1) * histSubCnt
)

// BucketIndex maps a nanosecond value to its bucket.
func BucketIndex(v uint64) int {
	if v < histSubCnt {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	// v>>shift is in [64, 128); consecutive octaves tile consecutive
	// 64-wide index bands.
	return shift*histSubCnt + int(v>>shift)
}

// BucketMid returns the representative (midpoint) value of a bucket.
func BucketMid(i int) uint64 {
	if i < histSubCnt {
		return uint64(i)
	}
	shift := i/histSubCnt - 1
	m := uint64(histSubCnt + i%histSubCnt)
	return m<<shift + uint64(1)<<shift>>1
}

// Histogram is a concurrent log-linear latency histogram. Record is a
// few atomic adds and never allocates, so it can sit on the per-request
// path of a serving process and in the hot loop of a load generator;
// many goroutines may record concurrently.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
}

// Record adds one latency sample (negative clamps to zero).
func (h *Histogram) Record(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	h.counts[BucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Merge folds the samples of o into h: bucket by bucket, so the result
// is exactly the histogram of the union.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the exact sum of all recorded samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile returns the value at quantile q of the samples recorded so
// far, as a bucket midpoint within the layout's ~1.6% relative error:
// q <= 0 (or NaN) names the lowest occupied bucket, q >= 1 the highest
// — the histogram's min and max, to bucket precision — and an empty
// histogram reports 0. Concurrent recording skews the answer by at most
// the in-flight samples.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	var rank uint64 // stays 0 for q <= 0 and NaN
	if q >= 1 {
		rank = total - 1
	} else if q > 0 {
		rank = min(uint64(q*float64(total)), total-1)
	}
	var seen uint64
	last := 0
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			last = i
			if seen += c; seen > rank {
				break
			}
		}
	}
	return time.Duration(BucketMid(last))
}
