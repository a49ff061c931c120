package rsse

import (
	"context"
	"fmt"
	"net"
	"testing"

	"rsse/internal/core"
)

// countingServer wraps a query target and records every trapdoor a
// query sends it and every response item it sends back.
type countingServer struct {
	core.Source
	traps []*core.Trapdoor
	items int
}

func (s *countingServer) SearchContext(ctx context.Context, t *core.Trapdoor) (*core.Response, error) {
	resp, err := s.Source.SearchContext(ctx, t)
	if err != nil {
		return nil, err
	}
	s.traps = append(s.traps, t)
	s.items += resp.Items()
	return resp, nil
}

// checkExchange asserts that st reports exactly the exchange s saw, and
// that its groups partition its raw ids.
func checkExchange(t *testing.T, what string, st QueryStats, s *countingServer) {
	t.Helper()
	checkBatchExchange(t, what, BatchStats{
		Rounds: st.Rounds, UniqueTokens: st.Tokens, TokenBytes: st.TokenBytes,
		ResponseItems: st.ResponseItems, ServerTime: st.ServerTime, OwnerTime: st.OwnerTime,
	}, s)
	checkGroups(t, what, st)
}

// checkBatchExchange asserts that st reports exactly the exchange s saw.
func checkBatchExchange(t *testing.T, what string, st BatchStats, s *countingServer) {
	t.Helper()
	tokens, bytes := 0, 0
	for _, tr := range s.traps {
		tokens += tr.Tokens()
		bytes += tr.Bytes()
	}
	switch {
	case st.Rounds != len(s.traps):
		t.Errorf("%s: Rounds = %d, server saw %d search rounds", what, st.Rounds, len(s.traps))
	case st.UniqueTokens != tokens || st.TokenBytes != bytes:
		t.Errorf("%s: Tokens/TokenBytes = %d/%d, server saw %d/%d", what, st.UniqueTokens, st.TokenBytes, tokens, bytes)
	case st.ResponseItems != s.items:
		t.Errorf("%s: ResponseItems = %d, server sent %d", what, st.ResponseItems, s.items)
	case st.OwnerTime <= 0 || st.ServerTime <= 0:
		t.Errorf("%s: OwnerTime %v, ServerTime %v, want both positive", what, st.OwnerTime, st.ServerTime)
	}
}

// checkGroups asserts that st's result groups partition its raw ids.
func checkGroups(t *testing.T, what string, st QueryStats) {
	t.Helper()
	grouped := 0
	for _, g := range st.Groups {
		grouped += g
	}
	if grouped != st.Raw {
		t.Errorf("%s: Groups sum to %d, Raw = %d", what, grouped, st.Raw)
	}
}

// TestOneRangeQueryReportsExchange: a single range query is a batch of
// one, and its stats still describe its whole exchange — the rounds,
// tokens and token bytes sent, the response items shipped back, groups
// that partition the raw ids, and both sides' time — against a local
// index, a remote handle, and every shard of a two-shard cluster.
func TestOneRangeQueryReportsExchange(t *testing.T) {
	ctx := context.Background()
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			bits := uint8(10)
			if kind == Quadratic {
				bits = 6
			}
			m := uint64(1) << bits
			q := Range{Lo: m / 8, Hi: m - m/4} // crosses the two shards' boundary
			tuples := clusterTestTuples(300, bits, 93)
			client, err := NewClient(kind, bits, WithSeed(93), AllowIntersectingQueries())
			if err != nil {
				t.Fatal(err)
			}
			index, err := client.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}

			local := &countingServer{Source: index}
			res, err := client.QueryContext(ctx, local, q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Raw == 0 {
				t.Fatalf("%v matched nothing", q)
			}
			checkExchange(t, "local", res.Stats, local)

			cliConn, srvConn := net.Pipe()
			go func() { _ = ServeConn(srvConn, index) }()
			remote := NewRemoteIndex(cliConn)
			defer remote.Close()
			wire := &countingServer{Source: remote}
			if res, err = client.QueryContext(ctx, wire, q); err != nil {
				t.Fatal(err)
			}
			checkExchange(t, "remote", res.Stats, wire)

			cluster, err := BuildCluster(kind, bits, 2, tuples,
				WithSeed(93), AllowIntersectingQueries())
			if err != nil {
				t.Fatal(err)
			}
			shards := make([]*countingServer, len(cluster.targets))
			for i, target := range cluster.targets {
				shards[i] = &countingServer{Source: target}
				cluster.targets[i] = shards[i]
			}
			cres, err := cluster.QueryBatchContext(ctx, []Range{q})
			if err != nil {
				t.Fatal(err)
			}
			if len(cres.Shards) != 2 {
				t.Fatalf("%v touched %d shards, want 2", q, len(cres.Shards))
			}
			for _, sh := range cres.Shards {
				checkBatchExchange(t, fmt.Sprintf("shard %d", sh.Shard), sh.Stats, shards[sh.Shard])
			}
			checkGroups(t, "cluster", cres.Results[0].Stats)
		})
	}
}
