package fault

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rsse/internal/storage"
)

// BackendPlan configures storage-layer fault injection. Backends have
// no error channel in their Get path (storage.Backend.Get returns
// only ok), so the faults a backend can suffer are timing faults:
// deterministic slow-disk delays. That is exactly what the
// chaos-differential suite needs — results must stay byte-identical
// while latency is perturbed.
type BackendPlan struct {
	// Seed drives the random delay decisions.
	Seed int64 `json:"seed"`
	// DelayEvery sleeps on every Nth Get (0 disables).
	DelayEvery int `json:"delay_every,omitempty"`
	// DelayRate is the probability any Get sleeps (0 disables).
	DelayRate float64 `json:"delay_rate,omitempty"`
	// DelayMS is the sleep applied when a delay triggers.
	DelayMS int `json:"delay_ms,omitempty"`
}

func (p BackendPlan) enabled() bool {
	return p.DelayMS > 0 && (p.DelayEvery > 0 || p.DelayRate > 0)
}

// Engine wraps a storage engine so every backend it seals injects the
// plan's delays. It plugs into the same Engine seam schemes already
// use, so a served index can run over a misbehaving "disk" without
// any scheme or server change.
type Engine struct {
	Inner storage.Engine
	Plan  BackendPlan
}

func (e Engine) Name() string { return "fault+" + storage.OrDefault(e.Inner).Name() }

func (e Engine) NewBuilder(keyLen, capacityHint int) storage.Builder {
	return &builder{inner: storage.OrDefault(e.Inner).NewBuilder(keyLen, capacityHint), plan: e.Plan}
}

type builder struct {
	inner storage.Builder
	plan  BackendPlan
}

func (b *builder) Put(key, value []byte) error { return b.inner.Put(key, value) }

func (b *builder) Seal() (storage.Backend, error) {
	be, err := b.inner.Seal()
	if err != nil {
		return nil, err
	}
	return WrapBackend(be, b.plan), nil
}

// WrapBackend applies plan to an already-sealed backend.
func WrapBackend(b storage.Backend, plan BackendPlan) storage.Backend {
	if !plan.enabled() {
		return b
	}
	return &backend{Backend: b, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// backend delays Gets per its plan. Delay decisions are deterministic
// in the sequence of Gets; the rng is mutex-guarded because backends
// must stay safe for concurrent readers. GetMany is one delayed Get per
// key: the embedded backend's would probe past the plan.
type backend struct {
	storage.Backend
	plan  BackendPlan
	gets  atomic.Int64
	slept atomic.Int64 // delays served so far

	mu  sync.Mutex
	rng *rand.Rand
}

func (b *backend) Get(key []byte) ([]byte, bool) {
	n := b.gets.Add(1)
	sleep := b.plan.DelayEvery > 0 && n%int64(b.plan.DelayEvery) == 0
	if !sleep && b.plan.DelayRate > 0 {
		b.mu.Lock()
		sleep = b.rng.Float64() < b.plan.DelayRate
		b.mu.Unlock()
	}
	if sleep {
		b.slept.Add(1)
		time.Sleep(time.Duration(b.plan.DelayMS) * time.Millisecond)
	}
	return b.Backend.Get(key)
}

func (b *backend) GetMany(keys, vals [][]byte) { storage.GetEach(b, keys, vals) }
