package rsse

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"rsse/internal/core"
)

// hangFirstSearch is a shard target whose first search round does not
// return until its context is done — a round trip to a server that
// stopped answering.
type hangFirstSearch struct {
	core.Source
	hung    atomic.Bool
	release chan struct{}
}

func (h *hangFirstSearch) SearchContext(ctx context.Context, t *core.Trapdoor) (*core.Response, error) {
	if h.hung.CompareAndSwap(false, true) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-h.release:
			return nil, errors.New("released by test cleanup")
		}
	}
	return h.Source.SearchContext(ctx, t)
}

// TestClusterQueryContextReleasesShard checks that a query abandoned at
// its deadline stops its shard sub-query too, and that the shard keeps
// answering later queries.
func TestClusterQueryContextReleasesShard(t *testing.T) {
	c, err := BuildCluster(LogarithmicBRC, 10, 2, clusterTestTuples(200, 10, 81))
	if err != nil {
		t.Fatal(err)
	}
	hang := &hangFirstSearch{Source: c.targets[0], release: make(chan struct{})}
	t.Cleanup(func() { close(hang.release) })
	c.targets[0] = hang
	q := c.ShardRange(0)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.QueryBatchContext(ctx, []Range{q}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first query: err = %v, want deadline exceeded", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	res, err := c.QueryBatchContext(ctx2, []Range{q})
	if err != nil {
		t.Fatalf("second query on the same shard: %v", err)
	}
	if len(res.Results[0].Matches) == 0 {
		t.Fatal("second query matched nothing")
	}
}
