package workload

import (
	"context"
	"fmt"
	"time"

	"rsse/internal/obs"
)

// LeakageCounters is what ops cost in leakage terms, as counted by the
// sessions that executed them (from the scheme client's QueryStats):
// one op's as a Session returns it, a phase's summed. The load report
// carries them so throughput numbers stay attached to what the server
// observed to produce them.
type LeakageCounters struct {
	Tokens         uint64 `json:"tokens"`
	TokenBytes     uint64 `json:"token_bytes"`
	ResponseItems  uint64 `json:"response_items"`
	RawIDs         uint64 `json:"raw_ids"`
	FalsePositives uint64 `json:"false_positives"`
}

func (l *LeakageCounters) add(o LeakageCounters) {
	l.Tokens += o.Tokens
	l.TokenBytes += o.TokenBytes
	l.ResponseItems += o.ResponseItems
	l.RawIDs += o.RawIDs
	l.FalsePositives += o.FalsePositives
}

// Accumulator gathers one slot's counts; slots are merged after the
// phase so the hot path shares nothing but the phase's histogram.
type Accumulator struct {
	Requests uint64 // completed ops (batched, write, or single query)
	Batches  uint64 // ops that were batched queries
	Writes   uint64 // ops that were owner-style writes
	Errors   uint64
	Shed     uint64 // paced fires skipped because the slot fell behind
	Leakage  LeakageCounters
}

// Merge folds o into a.
func (a *Accumulator) Merge(o *Accumulator) {
	a.Requests += o.Requests
	a.Batches += o.Batches
	a.Writes += o.Writes
	a.Errors += o.Errors
	a.Shed += o.Shed
	a.Leakage.add(o.Leakage)
}

// A Session executes ops against a live index — one multiplexed
// connection's worth of client state. Do must be safe for concurrent
// use (the wire Conn multiplexes by request id), and must honour ctx.
type Session interface {
	Do(ctx context.Context, op *Op) (LeakageCounters, error)
	Close() error
}

// Runner drives a Spec against sessions produced by NewSession, one
// session per configured connection, InFlight slot goroutines per
// session.
type Runner struct {
	Spec       *Spec
	Bits       uint8
	NewSession func() (Session, error)

	// OnPhase, when set, is called with each finished phase report
	// (progress logging).
	OnPhase func(PhaseReport)
}

// Run executes every phase in order and returns the per-phase reports.
func (r *Runner) Run(ctx context.Context) (*RunReport, error) {
	if err := r.Spec.Validate(); err != nil {
		return nil, err
	}
	maxConns := r.Spec.Connections
	for _, p := range r.Spec.Phases {
		if p.Connections > maxConns {
			maxConns = p.Connections
		}
	}
	sessions := make([]Session, maxConns)
	for i := range sessions {
		s, err := r.NewSession()
		if err != nil {
			for _, open := range sessions[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("workload: session %d: %w", i, err)
		}
		sessions[i] = s
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()

	report := &RunReport{Workload: r.Spec.Name, Seed: r.Spec.Seed}
	// Run-level figures (see RunReport): the capacity phases', or every
	// non-warmup phase's when the spec has no capacity phase.
	var capacity, steady rollup
	for pi, ph := range r.Spec.Phases {
		conns, inflight := ph.Connections, ph.InFlight
		if conns == 0 {
			conns = r.Spec.Connections
		}
		if inflight == 0 {
			inflight = r.Spec.InFlight
		}
		slots := conns * inflight
		accs := make([]Accumulator, slots)
		gens := make([]*Generator, slots)
		for s := 0; s < slots; s++ {
			g, err := NewGenerator(r.Spec, r.Bits, pi*4096+s)
			if err != nil {
				return nil, err
			}
			gens[s] = g
		}

		hist := new(obs.Histogram) // shared by the phase's slots
		start := time.Now()
		deadline := start.Add(time.Duration(ph.DurationMS) * time.Millisecond)
		done := make(chan struct{}, slots)
		for s := 0; s < slots; s++ {
			go func(s int) {
				defer func() { done <- struct{}{} }()
				runSlot(ctx, sessions[s%conns], gens[s], &accs[s], hist, ph, s, slots, start, deadline)
			}(s)
		}
		for s := 0; s < slots; s++ {
			<-done
		}
		elapsed := time.Since(start)
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		merged := &accs[0]
		for s := 1; s < slots; s++ {
			merged.Merge(&accs[s])
		}
		pr := PhaseReport{
			Name:        ph.Name,
			Warmup:      ph.Warmup,
			TargetQPS:   ph.TargetQPS,
			Connections: conns,
			InFlight:    inflight,
			DurationMS:  float64(elapsed) / float64(time.Millisecond),
			Requests:    merged.Requests,
			Batches:     merged.Batches,
			Writes:      merged.Writes,
			Errors:      merged.Errors,
			Shed:        merged.Shed,
			QPS:         float64(merged.Requests) / elapsed.Seconds(),
			Latency:     Summarize(hist),
			Leakage:     merged.Leakage,
		}
		report.Phases = append(report.Phases, pr)
		if !ph.Warmup {
			steady.add(hist, merged.Requests, elapsed)
			if ph.TargetQPS == 0 && conns == r.Spec.Connections && inflight == r.Spec.InFlight {
				capacity.add(hist, merged.Requests, elapsed)
			}
		}
		if r.OnPhase != nil {
			r.OnPhase(pr)
		}
	}
	designated := &capacity
	if capacity.elapsed == 0 {
		designated = &steady
	}
	if designated.elapsed > 0 {
		report.SustainedQPS = float64(designated.requests) / designated.elapsed.Seconds()
	}
	report.Latency = Summarize(&designated.hist)
	return report, nil
}

// rollup sums phases: latencies merged, requests over elapsed time.
type rollup struct {
	hist     obs.Histogram
	requests uint64
	elapsed  time.Duration
}

func (u *rollup) add(h *obs.Histogram, requests uint64, elapsed time.Duration) {
	u.hist.Merge(h)
	u.requests += requests
	u.elapsed += elapsed
}

// runSlot is one slot's phase loop. Unpaced (TargetQPS == 0) it keeps
// exactly one request in flight — a closed loop measuring capacity.
// Paced, it fires on a fixed schedule with the slot's share of the
// target rate, measures latency from the *scheduled* fire time (so
// server-side queueing is not hidden — the coordinated-omission
// correction), and sheds fires it is too far behind to attempt.
func runSlot(ctx context.Context, sess Session, gen *Generator, acc *Accumulator, hist *obs.Histogram, ph Phase, slot, slots int, start, deadline time.Time) {
	var interval time.Duration
	var next time.Time
	paced := ph.TargetQPS > 0
	if paced {
		interval = time.Duration(float64(slots) / ph.TargetQPS * float64(time.Second))
		// Stagger slot start offsets across one interval so the fleet
		// fires evenly, not in bursts of `slots`.
		next = start.Add(interval * time.Duration(slot) / time.Duration(slots))
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for {
		if ctx.Err() != nil {
			return
		}
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		fireAt := now
		if paced {
			if wait := next.Sub(now); wait > 0 {
				if next.After(deadline) {
					return
				}
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
				now = time.Now()
			}
			// Catch-up: fires more than one interval stale are shed and
			// counted, not silently queued behind the slow one.
			for next.Add(interval).Before(now) {
				next = next.Add(interval)
				acc.Shed++
			}
			fireAt = next
			next = next.Add(interval)
		}
		op := gen.Next()
		m, err := sess.Do(ctx, op)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			acc.Errors++
			continue
		}
		hist.Record(time.Since(fireAt))
		acc.Requests++
		switch {
		case op.Write != nil:
			acc.Writes++
		case len(op.Ranges) > 1:
			acc.Batches++
		}
		acc.Leakage.add(m)
	}
}
