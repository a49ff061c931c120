package shard

import "rsse/internal/obs"

// Fan-out metrics on the process-wide obs.Default registry: how many
// sub-queries Run starts (cluster shards, sharded Dynamic shards and
// MultiClient attributes alike), how long each takes, and how often a
// Partial-policy run came back degraded.
var (
	mSubqueries = obs.Default.Counter("rsse_shard_subqueries_total",
		"Sub-queries executed by fan-out runs (cluster and Dynamic shards, MultiClient attributes).")
	mSubqueryErrs = obs.Default.Counter("rsse_shard_subquery_errors_total",
		"Fan-out sub-queries that failed (cancelled ones included).")
	mSubqueryTime = obs.Default.Histogram("rsse_shard_subquery_seconds",
		"Per-sub-query latency inside a fan-out run.")
	mPartials = obs.Default.Counter("rsse_shard_partial_results_total",
		"Fan-out runs that completed with at least one failed sub-query.")
)
