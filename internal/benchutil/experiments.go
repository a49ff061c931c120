package benchutil

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	mrand "math/rand"
	"sort"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/dataset"
	"rsse/internal/pb"
	"rsse/internal/prf"
	"rsse/internal/sse"
)

func newRand(seed int64) *mrand.Rand { return mrand.New(mrand.NewSource(seed)) }

// schemeGroup is one curve of Figures 5/7: the paper groups BRC and URC
// variants when their cost is identical.
type schemeGroup struct {
	label string
	kind  core.Kind
}

func indexCostGroups() []schemeGroup {
	return []schemeGroup{
		{"Constant-BRC/URC", core.ConstantBRC},
		{"Logarithmic-BRC/URC", core.LogarithmicBRC},
		{"Logarithmic-SRC", core.LogarithmicSRC},
		{"Logarithmic-SRC-i", core.LogarithmicSRCi},
	}
}

func buildClient(s Scale, kind core.Kind, bits uint8, seed int64) (*core.Client, error) {
	return core.NewClient(kind, cover.Domain{Bits: bits}, s.clientOptions(seed))
}

// gowallaTuples draws the near-uniform workload at the scale's domain.
func gowallaTuples(s Scale, n int, seed int64) []core.Tuple {
	return dataset.Uniform(n, s.GowallaBits, seed)
}

// uspsTuples draws the skewed workload: 5% distinct values clustered in
// a salary band, Zipf mass on the common values.
func uspsTuples(s Scale, seed int64) []core.Tuple {
	m := uint64(1) << s.USPSBits
	return dataset.BandedZipfPool(s.USPSN, s.USPSBits, s.USPSN/20, 1.3, m/8, m/2, seed)
}

// Fig5 reproduces Figures 5(a) and 5(b): index size and construction time
// versus dataset size on the near-uniform (Gowalla-like) workload, for
// every scheme plus the PB baseline.
func Fig5(s Scale) (sizeExp, timeExp *Experiment, err error) {
	sizeExp = &Experiment{
		Name: "Figure 5(a)", Title: "Index size vs dataset size (Gowalla-like)",
		XLabel: "n", YLabel: "index size (MB)",
	}
	timeExp = &Experiment{
		Name: "Figure 5(b)", Title: "Construction time vs dataset size (Gowalla-like)",
		XLabel: "n", YLabel: "construction time (s)",
	}
	groups := indexCostGroups()
	for gi := range groups {
		sizeExp.Series = append(sizeExp.Series, Series{Label: groups[gi].label})
		timeExp.Series = append(timeExp.Series, Series{Label: groups[gi].label})
	}
	sizeExp.Series = append(sizeExp.Series, Series{Label: "PB (Li et al.)"})
	timeExp.Series = append(timeExp.Series, Series{Label: "PB (Li et al.)"})

	for _, n := range s.GowallaNs {
		tuples := gowallaTuples(s, n, int64(n))
		for gi, g := range groups {
			client, err := buildClient(s, g.kind, s.GowallaBits, int64(n))
			if err != nil {
				return nil, nil, err
			}
			start := time.Now()
			idx, err := client.BuildIndex(tuples)
			if err != nil {
				return nil, nil, fmt.Errorf("%s n=%d: %w", g.label, n, err)
			}
			elapsed := time.Since(start)
			sizeExp.Series[gi].X = append(sizeExp.Series[gi].X, float64(n))
			sizeExp.Series[gi].Y = append(sizeExp.Series[gi].Y, float64(idx.Size())/(1<<20))
			timeExp.Series[gi].X = append(timeExp.Series[gi].X, float64(n))
			timeExp.Series[gi].Y = append(timeExp.Series[gi].Y, elapsed.Seconds())
		}
		pbSize, pbTime := math.NaN(), math.NaN()
		if n <= s.PBMaxN {
			pbc, err := pb.NewClient(cover.Domain{Bits: s.GowallaBits}, pb.DefaultFPR, newRand(int64(n)))
			if err != nil {
				return nil, nil, err
			}
			items := make([]pb.Item, len(tuples))
			for i, t := range tuples {
				items[i] = pb.Item{ID: t.ID, Value: t.Value}
			}
			start := time.Now()
			pidx, err := pbc.Build(items)
			if err != nil {
				return nil, nil, err
			}
			pbTime = time.Since(start).Seconds()
			pbSize = float64(pidx.Size()) / (1 << 20)
		}
		last := len(sizeExp.Series) - 1
		sizeExp.Series[last].X = append(sizeExp.Series[last].X, float64(n))
		sizeExp.Series[last].Y = append(sizeExp.Series[last].Y, pbSize)
		timeExp.Series[last].X = append(timeExp.Series[last].X, float64(n))
		timeExp.Series[last].Y = append(timeExp.Series[last].Y, pbTime)
	}
	return sizeExp, timeExp, nil
}

// Table2 reproduces Table 2: index size and construction time on the
// skewed (USPS-like) workload.
func Table2(s Scale) (*Experiment, error) {
	exp := &Experiment{
		Name: "Table 2", Title: fmt.Sprintf("Index costs, USPS-like (n=%d)", s.USPSN),
		XLabel: "row", YLabel: "col1: size MB, col2: time s",
	}
	tuples := uspsTuples(s, 16)
	sizeSeries := Series{Label: "index size (MB)"}
	timeSeries := Series{Label: "constr. time (s)"}
	row := 0.0
	var labels []string
	add := func(label string, mb, secs float64) {
		labels = append(labels, label)
		sizeSeries.X = append(sizeSeries.X, row)
		sizeSeries.Y = append(sizeSeries.Y, mb)
		timeSeries.X = append(timeSeries.X, row)
		timeSeries.Y = append(timeSeries.Y, secs)
		row++
	}
	for _, g := range indexCostGroups() {
		client, err := buildClient(s, g.kind, s.USPSBits, 17)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		idx, err := client.BuildIndex(tuples)
		if err != nil {
			return nil, err
		}
		add(g.label, float64(idx.Size())/(1<<20), time.Since(start).Seconds())
	}
	if s.USPSN <= s.PBMaxN {
		pbc, err := pb.NewClient(cover.Domain{Bits: s.USPSBits}, pb.DefaultFPR, newRand(18))
		if err != nil {
			return nil, err
		}
		items := make([]pb.Item, len(tuples))
		for i, t := range tuples {
			items[i] = pb.Item{ID: t.ID, Value: t.Value}
		}
		start := time.Now()
		pidx, err := pbc.Build(items)
		if err != nil {
			return nil, err
		}
		add("PB (Li et al.)", float64(pidx.Size())/(1<<20), time.Since(start).Seconds())
	}
	exp.Series = []Series{sizeSeries, timeSeries}
	// Stash labels in the experiment title footprint: the printer shows X
	// as row indexes; PrintTable2 below renders named rows instead.
	exp.rowLabels = labels
	return exp, nil
}

// Fig6 reproduces Figures 6(a) and 6(b): average false positive rate
// (false positives over returned results) versus query range size, for
// Logarithmic-SRC and Logarithmic-SRC-i, on both workloads.
func Fig6(s Scale) (gowalla, usps *Experiment, err error) {
	run := func(name string, tuples []core.Tuple, bits uint8) (*Experiment, error) {
		exp := &Experiment{
			Name: name, Title: "False positive rate vs range size",
			XLabel: "range (% of domain)", YLabel: "avg FP rate",
		}
		for _, kind := range []core.Kind{core.LogarithmicSRCi, core.LogarithmicSRC} {
			client, err := buildClient(s, kind, bits, 19)
			if err != nil {
				return nil, err
			}
			idx, err := client.BuildIndex(tuples)
			if err != nil {
				return nil, err
			}
			series := Series{Label: kind.String()}
			for _, pct := range s.RangePercents {
				queries := dataset.PercentQueries(s.QueriesPerPoint, cover.Domain{Bits: bits}, pct, int64(pct*100))
				var rateSum float64
				var counted int
				for _, q := range queries {
					res, err := client.QueryContext(context.Background(), idx, q)
					if err != nil {
						return nil, err
					}
					if res.Stats.Raw > 0 {
						rateSum += float64(res.Stats.FalsePositives) / float64(res.Stats.Raw)
						counted++
					}
				}
				series.X = append(series.X, pct)
				if counted > 0 {
					series.Y = append(series.Y, rateSum/float64(counted))
				} else {
					series.Y = append(series.Y, 0)
				}
			}
			exp.Series = append(exp.Series, series)
		}
		return exp, nil
	}
	gowalla, err = run("Figure 6(a)", gowallaTuples(s, lastN(s), 20), s.GowallaBits)
	if err != nil {
		return nil, nil, err
	}
	usps, err = run("Figure 6(b)", uspsTuples(s, 21), s.USPSBits)
	if err != nil {
		return nil, nil, err
	}
	return gowalla, usps, nil
}

func lastN(s Scale) int { return s.GowallaNs[len(s.GowallaNs)-1] }

// Fig7 reproduces Figures 7(a) and 7(b): server-side search time versus
// query range size for every scheme, the PB baseline, and the pure-SSE
// floor (the unavoidable cost of retrieving the results through the
// underlying SSE scheme).
func Fig7(s Scale) (gowalla, usps *Experiment, err error) {
	groups := []schemeGroup{
		{"Logarithmic-SRC-i", core.LogarithmicSRCi},
		{"Logarithmic-SRC", core.LogarithmicSRC},
		{"Logarithmic-BRC/URC", core.LogarithmicBRC},
		{"Constant-BRC/URC", core.ConstantBRC},
	}
	run := func(name string, tuples []core.Tuple, bits uint8) (*Experiment, error) {
		exp := &Experiment{
			Name: name, Title: "Search time vs range size",
			XLabel: "range (% of domain)", YLabel: "avg search time (ms/query)",
		}
		dom := cover.Domain{Bits: bits}
		queriesPerPct := make(map[float64][]core.Range)
		for _, pct := range s.RangePercents {
			queriesPerPct[pct] = dataset.PercentQueries(s.QueriesPerPoint, dom, pct, int64(pct*10))
		}
		for _, g := range groups {
			client, err := buildClient(s, g.kind, bits, 22)
			if err != nil {
				return nil, err
			}
			idx, err := client.BuildIndex(tuples)
			if err != nil {
				return nil, err
			}
			series := Series{Label: g.label}
			for _, pct := range s.RangePercents {
				var total time.Duration
				for _, q := range queriesPerPct[pct] {
					res, err := client.QueryContext(context.Background(), idx, q)
					if err != nil {
						return nil, err
					}
					total += res.Stats.ServerTime
				}
				series.X = append(series.X, pct)
				series.Y = append(series.Y, msPerQuery(total, s.QueriesPerPoint))
			}
			exp.Series = append(exp.Series, series)
		}
		// PB baseline.
		if len(tuples) <= s.PBMaxN {
			pbc, err := pb.NewClient(dom, pb.DefaultFPR, newRand(23))
			if err != nil {
				return nil, err
			}
			items := make([]pb.Item, len(tuples))
			for i, t := range tuples {
				items[i] = pb.Item{ID: t.ID, Value: t.Value}
			}
			pidx, err := pbc.Build(items)
			if err != nil {
				return nil, err
			}
			series := Series{Label: "PB (Li et al.)"}
			for _, pct := range s.RangePercents {
				var total time.Duration
				for _, q := range queriesPerPct[pct] {
					td, err := pbc.Trapdoor(q.Lo, q.Hi, pidx.Depth())
					if err != nil {
						return nil, err
					}
					start := time.Now()
					pidx.Search(td)
					total += time.Since(start)
				}
				series.X = append(series.X, pct)
				series.Y = append(series.Y, msPerQuery(total, s.QueriesPerPoint))
			}
			exp.Series = append(exp.Series, series)
		}
		// Pure SSE floor: one keyword per query holding exactly its
		// results; searching it is the inevitable retrieval cost.
		floor, err := pureSSEFloor(s, dom, tuples, queriesPerPct, s.RangePercents)
		if err != nil {
			return nil, err
		}
		exp.Series = append(exp.Series, *floor)
		return exp, nil
	}
	gowalla, err = run("Figure 7(a)", gowallaTuples(s, lastN(s), 24), s.GowallaBits)
	if err != nil {
		return nil, nil, err
	}
	usps, err = run("Figure 7(b)", uspsTuples(s, 25), s.USPSBits)
	if err != nil {
		return nil, nil, err
	}
	return gowalla, usps, nil
}

func msPerQuery(total time.Duration, queries int) float64 {
	return float64(total.Microseconds()) / 1000.0 / float64(queries)
}

// pureSSEFloor builds a single-keyword SSE index whose postings are the
// exact results of each benchmark query and times its searches.
func pureSSEFloor(s Scale, dom cover.Domain, tuples []core.Tuple, queriesPerPct map[float64][]core.Range, pcts []float64) (*Series, error) {
	// Sort ids by value once for fast exact-result extraction.
	sorted := make([]core.Tuple, len(tuples))
	copy(sorted, tuples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Value < sorted[j].Value })
	values := make([]uint64, len(sorted))
	ids := make([]byte, 8*len(sorted))
	for i, t := range sorted {
		values[i] = t.Value
		binary.BigEndian.PutUint64(ids[8*i:], t.ID)
	}
	// resultsOf is q's answer as a run of the value-sorted ids.
	resultsOf := func(q core.Range) []byte {
		lo := sort.Search(len(values), func(i int) bool { return values[i] >= q.Lo })
		hi := sort.Search(len(values), func(i int) bool { return values[i] > q.Hi })
		return ids[8*lo : 8*hi]
	}
	key, err := prf.NewKey(nil)
	if err != nil {
		return nil, err
	}
	var entries []sse.Entry
	stagOf := make(map[float64][]sse.Stag)
	counter := uint64(0)
	for _, pct := range pcts {
		for _, q := range queriesPerPct[pct] {
			stag := sse.Stag(prf.EvalUint64(key, counter))
			counter++
			entries = append(entries, sse.Entry{Stag: stag, Data: resultsOf(q)})
			stagOf[pct] = append(stagOf[pct], stag)
		}
	}
	idx, err := s.sseScheme().Build(entries, 8, newRand(26), nil, prf.SuiteSHA512) // the paper's PRF
	if err != nil {
		return nil, err
	}
	series := &Series{Label: "SSE (floor)"}
	for _, pct := range pcts {
		var total time.Duration
		for _, stag := range stagOf[pct] {
			start := time.Now()
			if _, _, err := idx.Search([]sse.Stag{stag}, nil, nil); err != nil {
				return nil, err
			}
			total += time.Since(start)
		}
		series.X = append(series.X, pct)
		series.Y = append(series.Y, msPerQuery(total, len(stagOf[pct])))
	}
	return series, nil
}

// Fig8 reproduces Figures 8(a) and 8(b): owner-side query size in bytes
// and trapdoor generation time for range sizes 1..100 over a 2^20 domain.
// As the paper notes, these costs are dataset-independent.
func Fig8(s Scale) (sizeExp, timeExp *Experiment, err error) {
	dom := cover.Domain{Bits: s.Fig8Bits}
	sizeExp = &Experiment{
		Name: "Figure 8(a)", Title: fmt.Sprintf("Query size vs range size (domain 2^%d)", s.Fig8Bits),
		XLabel: "R", YLabel: "query size (bytes)",
	}
	timeExp = &Experiment{
		Name: "Figure 8(b)", Title: "Query generation time vs range size",
		XLabel: "R", YLabel: "avg Trpdr time (µs)",
	}
	groups := []struct {
		label string
		kind  core.Kind
	}{
		{"Logarithmic-SRC-i", core.LogarithmicSRCi},
		{"Logarithmic-SRC", core.LogarithmicSRC},
		{"Constant/Log-BRC", core.ConstantBRC},
		{"Constant/Log-URC", core.ConstantURC},
	}
	rangeSizes := fig8Ranges()
	rnd := newRand(27)
	for _, g := range groups {
		client, err := buildClient(s, g.kind, s.Fig8Bits, 28)
		if err != nil {
			return nil, nil, err
		}
		sizeSeries := Series{Label: g.label}
		timeSeries := Series{Label: g.label}
		for _, R := range rangeSizes {
			var bytesSum int
			start := time.Now()
			for rep := 0; rep < s.Fig8Reps; rep++ {
				lo := rnd.Uint64() % (dom.Size() - R)
				_, b, err := client.TrapdoorCost(core.Range{Lo: lo, Hi: lo + R - 1})
				if err != nil {
					return nil, nil, err
				}
				bytesSum += b
			}
			elapsed := time.Since(start)
			sizeSeries.X = append(sizeSeries.X, float64(R))
			sizeSeries.Y = append(sizeSeries.Y, float64(bytesSum)/float64(s.Fig8Reps))
			timeSeries.X = append(timeSeries.X, float64(R))
			timeSeries.Y = append(timeSeries.Y, float64(elapsed.Microseconds())/float64(s.Fig8Reps))
		}
		sizeExp.Series = append(sizeExp.Series, sizeSeries)
		timeExp.Series = append(timeExp.Series, timeSeries)
	}
	// PB: one digest per BRC node per tree level; depth modelled as
	// log2(n) = 20 as in the paper's dataset-independent measurement.
	pbc, err := pb.NewClient(dom, pb.DefaultFPR, newRand(29))
	if err != nil {
		return nil, nil, err
	}
	const pbDepth = 20
	sizeSeries := Series{Label: "PB (Li et al.)"}
	timeSeries := Series{Label: "PB (Li et al.)"}
	for _, R := range rangeSizes {
		var bytesSum int
		start := time.Now()
		for rep := 0; rep < s.Fig8Reps; rep++ {
			lo := rnd.Uint64() % (dom.Size() - R)
			td, err := pbc.Trapdoor(lo, lo+R-1, pbDepth)
			if err != nil {
				return nil, nil, err
			}
			bytesSum += pb.TrapdoorBytes(td)
		}
		elapsed := time.Since(start)
		sizeSeries.X = append(sizeSeries.X, float64(R))
		sizeSeries.Y = append(sizeSeries.Y, float64(bytesSum)/float64(s.Fig8Reps))
		timeSeries.X = append(timeSeries.X, float64(R))
		timeSeries.Y = append(timeSeries.Y, float64(elapsed.Microseconds())/float64(s.Fig8Reps))
	}
	sizeExp.Series = append(sizeExp.Series, sizeSeries)
	timeExp.Series = append(timeExp.Series, timeSeries)
	return sizeExp, timeExp, nil
}

// fig8Ranges returns 1..100 (the paper's x-axis).
func fig8Ranges() []uint64 {
	out := make([]uint64, 0, 100)
	for r := uint64(1); r <= 100; r++ {
		out = append(out, r)
	}
	return out
}
