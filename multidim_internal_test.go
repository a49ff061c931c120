package rsse

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"rsse/internal/core"
)

// failSearch is an attribute source whose every search fails.
type failSearch struct {
	core.Source
	err error
}

func (f failSearch) SearchContext(context.Context, *core.Trapdoor) (*core.Response, error) {
	return nil, f.err
}

// TestMultiClientAttributesConcurrent checks that a conjunctive query
// runs its attributes through the one fan-out: an attribute whose search
// hangs until its context is done costs the query its deadline and no
// more, the next query answers exactly, and a failing attribute fails
// the query with its attribute named.
func TestMultiClientAttributesConcurrent(t *testing.T) {
	bits := []uint8{8, 8}
	tuples := make([]MultiTuple, 120)
	for i := range tuples {
		tuples[i] = MultiTuple{ID: ID(i + 1), Values: []Value{Value(i * 2 % 256), Value(i * 7 % 256)}}
	}
	mc, err := NewMultiClient(LogarithmicBRC, bits, WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	indexes, err := mc.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	hang := &hangFirstSearch{Source: indexes[1], release: make(chan struct{})}
	t.Cleanup(func() { close(hang.release) })
	srcs := []Source{indexes[0], hang}
	q := MultiRange{{Lo: 10, Hi: 200}, {Lo: 30, Hi: 250}}
	var want []ID
	for _, tup := range tuples {
		if q[0].Contains(tup.Values[0]) && q[1].Contains(tup.Values[1]) {
			want = append(want, tup.ID)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := mc.QueryContext(ctx, srcs, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first query: err = %v, want deadline exceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("a hung attribute pinned the query for %v", waited)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	res, err := mc.QueryContext(ctx2, srcs, q)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	if len(want) == 0 || !slices.Equal(res.Matches, want) {
		t.Fatalf("second query: matches %v, want %v", res.Matches, want)
	}
	if res.Stats.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1: the attributes' rounds overlap", res.Stats.Rounds)
	}

	boom := errors.New("boom")
	_, err = mc.QueryContext(context.Background(), []Source{indexes[0], failSearch{indexes[1], boom}}, q)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "attribute 1:") {
		t.Fatalf("failing attribute: err = %v, want boom under \"attribute 1:\"", err)
	}
}
