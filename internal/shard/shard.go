// Package shard range-partitions the query-attribute domain across k
// independent sub-indexes and plans/executes range queries over them.
//
// A cluster splits the domain {0..2^m-1} into k contiguous shards, builds
// every shard as a normal static index under an independently derived key
// (package core neither knows nor cares that it holds one slice of a
// larger domain), and answers a range query by splitting it at shard
// boundaries, issuing the per-shard sub-queries concurrently, and merging
// the per-shard results. Partitioning is a deployment choice with a
// security upside: a compromised shard key exposes only that slice of the
// domain, never the neighbors'.
//
// The package provides the pieces in layers: Map (who owns which values),
// Map.SplitBatch (the query planner), Run (the one fan-out: one goroutine
// per part, with cancellation and error policies, which a sharded
// Dynamic and a MultiClient's attributes go through too), ClientKey
// (per-shard key derivation) and Manifest (the serializable cluster
// topology the CLIs and remote dialers exchange). Callers merge the
// parts' results themselves, folding their stats with core's
// QueryStats.Add and BatchStats.Add.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"rsse/internal/core"
	"rsse/internal/cover"
)

// Errors reported by the mapping layer.
var (
	ErrBadShardCount = errors.New("shard: shard count must be in 1..domain size")
	ErrBadBounds     = errors.New("shard: shard bounds must start at 0 and strictly increase inside the domain")
)

// Map assigns every domain value to exactly one of k contiguous shards.
// Shard i owns the closed interval [starts[i], starts[i+1]-1] (the last
// shard runs to the end of the domain). A Map is immutable and safe for
// concurrent use.
type Map struct {
	dom    cover.Domain
	starts []core.Value
}

// EqualWidth splits the domain into k near-equal contiguous slices — the
// default policy, ideal when values spread uniformly.
func EqualWidth(dom cover.Domain, k int) (Map, error) {
	if k < 1 || uint64(k) > dom.Size() {
		return Map{}, fmt.Errorf("%w: k=%d, domain size %d", ErrBadShardCount, k, dom.Size())
	}
	size := dom.Size()
	starts := make([]core.Value, k)
	for i := range starts {
		// i*size/k without overflow: size may be 2^62.
		q, r := size/uint64(k), size%uint64(k)
		starts[i] = q*uint64(i) + r*uint64(i)/uint64(k)
	}
	return Map{dom: dom, starts: starts}, nil
}

// Quantiles splits the domain at the dataset's k-quantiles so that each
// shard holds a near-equal number of tuples — the policy for skewed data,
// where equal-width slicing would concentrate the load on few shards.
// Heavy ties can collapse adjacent cut points; the returned map then has
// fewer than k shards (K reports the actual count).
func Quantiles(dom cover.Domain, k int, values []core.Value) (Map, error) {
	if k < 1 || uint64(k) > dom.Size() {
		return Map{}, fmt.Errorf("%w: k=%d, domain size %d", ErrBadShardCount, k, dom.Size())
	}
	if len(values) == 0 {
		return EqualWidth(dom, k)
	}
	sorted := make([]core.Value, len(values))
	copy(sorted, values)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if !dom.Contains(sorted[len(sorted)-1]) {
		return Map{}, fmt.Errorf("shard: value %d outside domain of size %d", sorted[len(sorted)-1], dom.Size())
	}
	starts := []core.Value{0}
	for i := 1; i < k; i++ {
		cut := sorted[i*len(sorted)/k]
		if cut > starts[len(starts)-1] {
			starts = append(starts, cut)
		}
	}
	return Map{dom: dom, starts: starts}, nil
}

// FromStarts reconstructs a map from its shard start values (as carried
// by a Manifest): starts[0] must be 0 and the sequence strictly
// increasing within the domain.
func FromStarts(dom cover.Domain, starts []core.Value) (Map, error) {
	if len(starts) == 0 || starts[0] != 0 {
		return Map{}, ErrBadBounds
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] || !dom.Contains(starts[i]) {
			return Map{}, fmt.Errorf("%w: starts[%d]=%d", ErrBadBounds, i, starts[i])
		}
	}
	return Map{dom: dom, starts: append([]core.Value(nil), starts...)}, nil
}

// K returns the number of shards.
func (m Map) K() int { return len(m.starts) }

// Domain returns the full domain the map partitions.
func (m Map) Domain() cover.Domain { return m.dom }

// ShardRange returns the closed value interval shard i owns.
func (m Map) ShardRange(i int) core.Range {
	hi := m.dom.Size() - 1
	if i+1 < len(m.starts) {
		hi = m.starts[i+1] - 1
	}
	return core.Range{Lo: m.starts[i], Hi: hi}
}

// Owner returns the shard that owns value v.
func (m Map) Owner(v core.Value) int {
	// First shard whose start exceeds v, minus one.
	return sort.Search(len(m.starts), func(i int) bool { return m.starts[i] > v }) - 1
}

// BatchTask is one shard's share of a multi-range batch: every slice of
// every input range that falls inside the shard, with the provenance
// needed to merge the per-slice results back into per-input-range
// results.
type BatchTask struct {
	Shard int
	// Ranges are the sub-ranges this shard answers, in input-range order.
	Ranges []core.Range
	// Sources[j] is the index of the input range Ranges[j] was cut from.
	Sources []int
}

// SplitBatch plans a batched query: every input range is cut at shard
// boundaries and the slices are grouped by owning shard, one BatchTask
// per intersected shard in ascending shard order. A range inside a
// single shard yields a slice on exactly that shard; a query's leakage
// scope is limited to the shards it intersects. Executing one batched
// sub-query per task — instead of one sub-query per (range, shard) pair —
// is what turns a k-shard, n-range scatter from k·n frames into at most
// k frames.
//
// A counting pass sizes every task first, so that the slices land in one
// range array and one source array, each task's share a capped window.
func (m Map) SplitBatch(qs []core.Range) []BatchTask {
	task := make([]int, m.K()) // slices per shard, then the shard's task
	total := 0
	for _, q := range qs {
		for s, last := m.Owner(q.Lo), m.Owner(q.Hi); s <= last; s++ {
			task[s]++
			total++
		}
	}
	ranges, sources := make([]core.Range, total), make([]int, total)
	out := make([]BatchTask, 0, m.K())
	for s, n := range task {
		if n > 0 {
			task[s] = len(out)
			out = append(out, BatchTask{Shard: s, Ranges: ranges[:0:n], Sources: sources[:0:n]})
			ranges, sources = ranges[n:], sources[n:]
		}
	}
	for i, q := range qs {
		for s, last := m.Owner(q.Lo), m.Owner(q.Hi); s <= last; s++ {
			bt := &out[task[s]]
			sr := m.ShardRange(s)
			bt.Ranges = append(bt.Ranges, core.Range{Lo: max(q.Lo, sr.Lo), Hi: min(q.Hi, sr.Hi)})
			bt.Sources = append(bt.Sources, i)
		}
	}
	return out
}
