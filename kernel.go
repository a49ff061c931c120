package rsse

import (
	"fmt"

	"rsse/internal/sse"
)

// SetSearchKernel selects the server-side token search path for the
// whole process: "batched" (the default — lane-batched label PRF with
// the derived-state stag cache) or "legacy" (scalar per-token key
// schedule, kept so load tests can measure the two in one binary).
// Meant to be set at process start (rsse-server -prf-kernel); flipping
// it under live traffic is safe but mixes the paths' timings. Results
// are byte-identical either way.
func SetSearchKernel(mode string) error {
	switch mode {
	case "batched":
		sse.SetKernel(true)
	case "legacy":
		sse.SetKernel(false)
	default:
		return fmt.Errorf("rsse: unknown search kernel %q (want batched or legacy)", mode)
	}
	return nil
}

// SearchKernelName names the active search-path configuration, for
// logs and bench reports.
func SearchKernelName() string { return sse.KernelName() }

// SearchKernelCacheStats returns the cumulative derived-state cache
// hits and misses of the batched kernel. The counters are
// process-wide; a hit means a repeated stag skipped its key schedule
// (and usually its label PRFs) entirely, a miss that the lookup derived
// its state (a stag is cached from its second miss on).
func SearchKernelCacheStats() (hits, misses uint64) { return sse.KernelCacheStats() }

// ResetSearchKernelCache drops the batched kernel's derived-state
// cache, clears its admission doorkeeper and zeroes its counters — for
// interleaved A/B measurements that must not inherit a warm cache.
func ResetSearchKernelCache() { sse.ResetKernelCache() }
