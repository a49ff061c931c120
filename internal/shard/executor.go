package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrAllShardsFailed is returned by a Partial-policy run in which not a
// single shard produced a result.
var ErrAllShardsFailed = errors.New("shard: every shard query failed")

// Policy selects how a scatter-gather run reacts to a failing shard.
type Policy int

const (
	// FailFast cancels the remaining sub-queries on the first error and
	// reports it — the default, right for strict-consistency callers.
	FailFast Policy = iota
	// Partial lets the other sub-queries finish and reports per-shard
	// errors alongside the partial results — right for callers that
	// prefer a degraded answer over none (the caller can see exactly
	// which domain slices are missing).
	Partial
)

// Outcome is one shard's sub-batch result: the task it ran, and
// either a result or an error (a task cancelled before running carries
// the context's error).
type Outcome[T any] struct {
	Task BatchTask
	Res  T
	Err  error
}

// Executor configures a scatter-gather run (see Run). The zero value
// uses the FailFast policy.
type Executor struct {
	// Policy selects the error handling (FailFast or Partial).
	Policy Policy
}

// Run executes every task via run, each in its own goroutine, and
// returns the outcomes in task order. Under FailFast the first
// sub-query error cancels the rest and is returned; under Partial all
// tasks run and the error is nil unless every shard failed.
//
// Cancelling ctx aborts the run either way, and Run returns promptly
// with ctx's error even if a sub-query is blocked inside run (stuck on
// network I/O, say): the stragglers are abandoned to their goroutines,
// which drain in the background, and the partially written outcomes are
// discarded.
func Run[T any](ctx context.Context, e Executor, tasks []BatchTask, run func(context.Context, BatchTask) (T, error)) ([]Outcome[T], error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]Outcome[T], len(tasks))
	// Buffered, so an abandoned straggler never blocks on its send.
	finished := make(chan struct{}, len(tasks))
	var (
		errOnce  sync.Once
		firstErr error
	)
	for i, t := range tasks {
		go func() {
			defer func() { finished <- struct{}{} }()
			if err := ctx.Err(); err != nil {
				outcomes[i] = Outcome[T]{Task: t, Err: err}
				mSubqueryErrs.Inc()
				return
			}
			start := time.Now()
			res, err := run(ctx, t)
			mSubqueries.Inc()
			mSubqueryTime.Record(time.Since(start))
			if err != nil {
				mSubqueryErrs.Inc()
			}
			outcomes[i] = Outcome[T]{Task: t, Res: res, Err: err}
			if err != nil && e.Policy == FailFast {
				errOnce.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	for range tasks {
		select {
		case <-finished:
		case <-parent.Done():
			// The caller's context expired while sub-queries were still
			// in flight. Do not wait for them — a hung shard must not pin
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
	if e.Policy == Partial {
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
