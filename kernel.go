package rsse

import "rsse/internal/sse"

// SearchKernelCacheStats returns the cumulative hits and misses of the
// server-side derived-state cache. The counters are process-wide; a
// hit means a repeated stag skipped its key schedule (and usually its
// label PRFs) entirely, a miss that the lookup derived its state (a
// stag is cached from its second miss on).
func SearchKernelCacheStats() (hits, misses uint64) { return sse.KernelCacheStats() }

// ResetSearchKernelCache drops the derived-state cache, clears its
// admission doorkeeper and zeroes its counters — for measurements that
// must not inherit a warm cache.
func ResetSearchKernelCache() { sse.ResetKernelCache() }
