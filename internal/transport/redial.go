package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rsse/internal/core"
)

// RetryPolicy bounds how a Redialer's handles retry idempotent ops.
// The zero value means "use the defaults"; an explicit MaxAttempts of
// 1 disables retries while keeping the redial-on-dead-conn behavior.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per op, first included.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each further
	// retry doubles it (plus up to 50% jitter) up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// OpTimeout, when non-zero, is a per-attempt deadline. It is what
	// turns a black-holed connection — open but silent, so the read
	// loop never fails — into a retryable timeout: the attempt expires,
	// the conn is replaced, and the next attempt dials fresh.
	OpTimeout time.Duration
	// Seed makes the backoff jitter deterministic for tests; 0 draws
	// from the global source.
	Seed int64
}

// DefaultRetryPolicy is what a zero RetryPolicy resolves to.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 4,
	BaseBackoff: 10 * time.Millisecond,
	MaxBackoff:  time.Second,
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultRetryPolicy.BaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	return p
}

// Redialer hands out live connections to one address, replacing
// sticky-dead ones through its Pool. It is the seam between "a Conn
// died" and "the op failed": handles created via Index retry
// idempotent reads across redials, per the policy. Safe for
// concurrent use.
type Redialer struct {
	pool   *Pool
	addr   string
	policy RetryPolicy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRedialer wraps one address of a pool with a retry policy.
func NewRedialer(pool *Pool, addr string, policy RetryPolicy) *Redialer {
	policy = policy.withDefaults()
	var rng *rand.Rand
	if policy.Seed != 0 {
		rng = rand.New(rand.NewSource(policy.Seed))
	}
	return &Redialer{pool: pool, addr: addr, policy: policy, rng: rng}
}

// Get returns a live connection, dialing (or redialing a dead cached
// conn) at most once — the retry loop above it owns the attempt
// budget. Dial failures wrap ErrConnDead so callers can treat "could
// not connect" and "connection died" as one retryable class.
func (r *Redialer) Get() (*Conn, error) {
	c, err := r.pool.Get(r.addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrConnDead, r.addr, err)
	}
	return c, nil
}

// Invalidate evicts c from the pool so the next Get redials. Used
// both for conns whose transport died and for conns that stopped
// answering (per-op deadline expired while the parent context lived).
func (r *Redialer) Invalidate(c *Conn) { r.pool.Evict(r.addr, c) }

// backoff returns the sleep before retry number `retry` (1-based):
// exponential from BaseBackoff, capped at MaxBackoff, with up to 50%
// added jitter so a fleet of retrying clients does not thunder back
// in lockstep.
func (r *Redialer) backoff(retry int) time.Duration {
	d := r.policy.BaseBackoff << (retry - 1)
	if d > r.policy.MaxBackoff || d <= 0 {
		d = r.policy.MaxBackoff
	}
	var f float64
	if r.rng != nil {
		r.mu.Lock()
		f = r.rng.Float64()
		r.mu.Unlock()
	} else {
		f = rand.Float64()
	}
	return d + time.Duration(f*0.5*float64(d))
}

// Index returns a resilient handle on the named index: the same
// surface as Conn.Index, but each idempotent read op survives conn
// death by redialing and retrying under the policy.
func (r *Redialer) Index(name string) *ResilientHandle {
	return &ResilientHandle{rd: r, name: name}
}

// Default returns the resilient handle single-index deployments use.
func (r *Redialer) Default() *ResilientHandle { return r.Index(DefaultIndex) }

// ResilientHandle addresses one named index through a Redialer. It is
// a core.Source like IndexHandle, but retries idempotent read ops —
// meta, search, fetch-many — across connection deaths with capped,
// jittered backoff.
// Each attempt's answer is one frame, so a conn that dies mid-response
// fails the attempt whole: nothing is spliced across attempts. It
// deliberately has no update surface: updates are at-most-once through
// the WAL ack and must never be auto-retried.
//
// Retry classification per attempt error:
//   - ErrConnDead: the transport died; replace the conn and retry.
//   - ErrOverloaded: the server is alive but shedding; back off and
//     retry on the SAME conn — failing over would stampede a healthy
//     peer while this one drains.
//   - per-attempt deadline (parent context still live): the conn may
//     be black-holed; replace it and retry.
//   - anything else (server errors, parse errors, parent context
//     expiry): not retryable, returned as-is.
type ResilientHandle struct {
	rd   *Redialer
	name string
	meta metaCache
}

// Name returns the index name the handle addresses.
func (h *ResilientHandle) Name() string { return h.name }

// do runs op under the retry policy. op receives a per-attempt
// context (carrying OpTimeout if configured) and a live conn.
func (h *ResilientHandle) do(ctx context.Context, op func(ctx context.Context, c *Conn) error) error {
	p := h.rd.policy
	var lastErr error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if attempt > 1 {
			if err := sleepCtx(ctx, h.rd.backoff(attempt-1)); err != nil {
				return lastErr
			}
		}
		c, err := h.rd.Get()
		if err != nil {
			lastErr = err
			continue
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if p.OpTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.OpTimeout)
		}
		err = op(attemptCtx, c)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		switch {
		case errors.Is(err, ErrConnDead):
			h.rd.Invalidate(c)
		case errors.Is(err, ErrOverloaded):
			// Server alive, shedding: keep the conn, just back off.
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// The attempt timed out but the caller's context is fine:
			// treat the conn as unresponsive (black hole) and replace it.
			h.rd.Invalidate(c)
		default:
			return err
		}
	}
	return lastErr
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// MetaContext implements core.Source with retries; a successful result
// is cached.
func (h *ResilientHandle) MetaContext(ctx context.Context) (core.IndexMeta, error) {
	return h.meta.get(ctx, func(ctx context.Context) (m core.IndexMeta, err error) {
		err = h.do(ctx, func(ctx context.Context, c *Conn) error {
			var err error
			m, err = fetchMeta(ctx, c, h.name)
			return err
		})
		return m, err
	})
}

// SearchContext implements core.Source with retries.
func (h *ResilientHandle) SearchContext(ctx context.Context, t *core.Trapdoor) (*core.Response, error) {
	var out *core.Response
	err := h.do(ctx, func(ctx context.Context, c *Conn) error {
		var err error
		out, err = c.Index(h.name).SearchContext(ctx, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
