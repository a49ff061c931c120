package core

import (
	"context"
	"testing"

	"rsse/internal/cover"
)

// TestTrapdoorCostMatchesQuery: Fig. 8's measurement counts what a query
// sends. For every kind, TrapdoorCost's token and byte counts equal those
// of Trapdoor(q) — plus, for SRC-i, the modelled second round — and
// those of a real Query over data with a value in every range, whose
// SRC-i queries therefore always take two rounds.
func TestTrapdoorCostMatchesQuery(t *testing.T) {
	const bits = 5 // Quadratic's keyword space is O(m^2)
	dom := cover.Domain{Bits: bits}
	tuples := make([]Tuple, 1<<bits)
	for i := range tuples {
		tuples[i] = Tuple{ID: ID(i + 1), Value: Value(i)}
	}
	ranges := []Range{{0, 31}, {3, 7}, {10, 10}, {0, 0}, {17, 29}, {31, 31}}
	for _, kind := range Kinds() {
		opts := testOptions(250)
		opts.AllowIntersecting = true
		c, err := NewClient(kind, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ranges {
			tokens, bytes, err := c.TrapdoorCost(q)
			if err != nil {
				t.Fatal(err)
			}
			td, err := c.Trapdoor(q)
			if err != nil {
				t.Fatal(err)
			}
			rounds := 1
			if kind == LogarithmicSRCi {
				rounds = 2
			}
			if tokens != rounds*td.Tokens() || bytes != rounds*td.Bytes() {
				t.Errorf("%v %v: TrapdoorCost %d tokens / %d B, Trapdoor %d / %d over %d rounds",
					kind, q, tokens, bytes, td.Tokens(), td.Bytes(), rounds)
			}
			res, err := c.QueryContext(context.Background(), idx, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Rounds != rounds || tokens != res.Stats.Tokens || bytes != res.Stats.TokenBytes {
				t.Errorf("%v %v: TrapdoorCost %d tokens / %d B, Query sent %d / %d in %d rounds",
					kind, q, tokens, bytes, res.Stats.Tokens, res.Stats.TokenBytes, res.Stats.Rounds)
			}
		}
	}
}
