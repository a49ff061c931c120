package rsse

import "rsse/internal/shard"

// shards is the range partition a Cluster and a Dynamic embed: their
// shard getters and the range check both query paths run.
type shards struct{ m shard.Map }

// Shards returns the number of shards (1 for a Dynamic store built by
// NewDynamic or OpenDynamic).
func (s shards) Shards() int { return s.m.K() }

// ShardRange returns the closed value interval shard i owns.
func (s shards) ShardRange(i int) Range { return s.m.ShardRange(i) }

// ShardOf returns the shard that owns value v.
func (s shards) ShardOf(v Value) int { return s.m.Owner(v) }

// check refuses the first inverted or out-of-domain range.
func (s shards) check(qs []Range) error {
	for _, q := range qs {
		if err := s.m.Domain().CheckRange(q.Lo, q.Hi); err != nil {
			return err
		}
	}
	return nil
}
