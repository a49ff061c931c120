package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrAllShardsFailed is returned by a Partial-policy run in which not a
// single part produced a result.
var ErrAllShardsFailed = errors.New("shard: every shard query failed")

// Policy selects how a fan-out run reacts to a failing part.
type Policy int

const (
	// FailFast cancels the remaining sub-queries on the first error and
	// reports it — the default, right for strict-consistency callers.
	FailFast Policy = iota
	// Partial lets the other sub-queries finish and reports per-part
	// errors alongside the partial results — right for callers that
	// prefer a degraded answer over none (the caller can see exactly
	// which domain slices are missing).
	Partial
)

// Outcome is one part's result or error (a part cancelled before it ran
// carries the context's error). Outcome i belongs to part i: callers
// index their own tasks.
type Outcome[T any] struct {
	Res T
	Err error
}

// Run is the one fan-out: it runs parts 0..n-1 through run, each in its
// own goroutine, and returns the outcomes in part order. A cluster's
// shard sub-batches, a sharded Dynamic's shards and a MultiClient's
// attributes all go through it. Under FailFast the first error cancels
// the rest and is returned; under Partial all parts run and the error is
// nil unless every part failed.
//
// Cancelling ctx aborts the run either way, and Run returns promptly
// with ctx's error even if a part is blocked inside run (stuck on
// network I/O, say): the stragglers are abandoned to their goroutines,
// which drain in the background, and the partially written outcomes are
// discarded.
func Run[T any](ctx context.Context, p Policy, n int, run func(ctx context.Context, i int) (T, error)) ([]Outcome[T], error) {
	if n == 0 {
		return nil, nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]Outcome[T], n)
	// Buffered, so an abandoned straggler never blocks on its send.
	finished := make(chan struct{}, n)
	var (
		errOnce  sync.Once
		firstErr error
	)
	for i := range n {
		go func() {
			defer func() { finished <- struct{}{} }()
			if err := ctx.Err(); err != nil {
				outcomes[i].Err = err
				mSubqueryErrs.Inc()
				return
			}
			start := time.Now()
			res, err := run(ctx, i)
			mSubqueries.Inc()
			mSubqueryTime.Record(time.Since(start))
			if err != nil {
				mSubqueryErrs.Inc()
			}
			outcomes[i] = Outcome[T]{Res: res, Err: err}
			if err != nil && p == FailFast {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	for range n {
		select {
		case <-finished:
		case <-parent.Done():
			// The caller's context expired while sub-queries were still
			// in flight. Do not wait for them — a hung part must not pin
			// the caller — and do not hand back outcomes the stragglers
			// may still be writing.
			return nil, parent.Err()
		}
	}

	if firstErr != nil {
		return outcomes, firstErr
	}
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if p == Partial {
		failed := 0
		var firstFailure error
		for _, o := range outcomes {
			if o.Err != nil {
				if firstFailure == nil {
					firstFailure = o.Err
				}
				failed++
			}
		}
		if failed == len(outcomes) {
			// Wrap the first cause so callers can type-match it (e.g.
			// transport.ErrConnDead) alongside the category.
			return outcomes, fmt.Errorf("%w: %w", ErrAllShardsFailed, firstFailure)
		}
		if failed > 0 {
			mPartials.Inc()
		}
	}
	return outcomes, nil
}
