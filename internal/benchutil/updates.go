package benchutil

import (
	"context"
	"fmt"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/lsm"
)

// Updates reproduces the Section 7 behaviour quantitatively: for several
// consolidation steps s it streams batches of updates and reports the
// number of active indexes after each batch (the curve that stays
// O(s log_s b)), plus aggregate flush+consolidation time and per-query
// fan-out cost at the end of the stream.
func Updates(s Scale) (active *Experiment, summary []UpdateSummary, err error) {
	const (
		bits      = 16
		batches   = 24
		batchSize = 250
	)
	active = &Experiment{
		Name: "Section 7", Title: "Active indexes vs batches flushed",
		XLabel: "batches", YLabel: "active indexes",
	}
	steps := []int{2, 4, 8}
	for _, step := range steps {
		m, err := lsm.NewManager(core.LogarithmicBRC, cover.Domain{Bits: bits}, step, s.clientOptions(int64(step)))
		if err != nil {
			return nil, nil, err
		}
		series := Series{Label: labelStep(step)}
		var flushTotal time.Duration
		id := uint64(1)
		rnd := newRand(int64(40 + step))
		for b := 1; b <= batches; b++ {
			for i := 0; i < batchSize; i++ {
				if i%10 == 9 && id > 20 {
					m.Delete(id-20, rnd.Uint64()%(1<<bits)) // churn
				} else {
					m.Insert(id, rnd.Uint64()%(1<<bits), nil)
					id++
				}
			}
			start := time.Now()
			if err := m.Flush(); err != nil {
				return nil, nil, err
			}
			flushTotal += time.Since(start)
			series.X = append(series.X, float64(b))
			series.Y = append(series.Y, float64(m.ActiveIndexes()))
		}
		// Fan-out cost of a query at the end of the stream.
		start := time.Now()
		_, qstats, err := m.QueryBatch(context.Background(), []core.Range{{Lo: 0, Hi: (1 << bits) - 1}})
		if err != nil {
			return nil, nil, err
		}
		summary = append(summary, UpdateSummary{
			Step:          step,
			ActiveIndexes: m.ActiveIndexes(),
			FlushTotal:    flushTotal,
			QueryTime:     time.Since(start),
			QueryTokens:   qstats.Tokens,
			TotalSize:     m.TotalIndexSize(),
		})
		active.Series = append(active.Series, series)
	}
	return active, summary, nil
}

// UpdateSummary is the end-of-stream cost profile for one consolidation
// step.
type UpdateSummary struct {
	Step          int
	ActiveIndexes int
	FlushTotal    time.Duration
	QueryTime     time.Duration
	QueryTokens   int
	TotalSize     int
}

func labelStep(s int) string {
	return fmt.Sprintf("s=%d", s)
}
