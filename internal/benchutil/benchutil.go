// Package benchutil is the experiment harness that regenerates every
// table and figure of the paper's evaluation (Section 8 and Appendix A).
// Each experiment returns structured series and can print a paper-style
// table; cmd/rsse-bench drives it.
//
// Absolute numbers differ from the paper (Go vs Java, synthetic vs
// original datasets, different hardware); the shapes — which scheme wins,
// by what factor, where the crossovers sit — are what the harness
// reproduces, and what experiments_test.go asserts.
package benchutil

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"rsse/internal/core"
	"rsse/internal/sse"
)

// Scale sizes an experiment run. The paper's full scale is hours of CPU;
// Small keeps every experiment within seconds-to-minutes so the full
// harness can run in CI.
type Scale struct {
	Name string

	// Gowalla-like (near-uniform) workload.
	GowallaBits uint8
	GowallaNs   []int // dataset size sweep for Figure 5

	// USPS-like (heavily skewed) workload.
	USPSBits uint8
	USPSN    int

	// Query workload sizing.
	QueriesPerPoint int
	RangePercents   []float64

	// Figure 8 trapdoor measurements.
	Fig8Bits uint8
	Fig8Reps int

	// PB is orders of magnitude slower to build; cap its dataset.
	PBMaxN int

	// SSE construction parameters (the paper's TSet uses S=6000, K=1.1;
	// small runs shrink S so padding does not dominate tiny indexes).
	TSetCapacity int
	TSetExpand   float64
}

// SmallScale finishes in well under a minute per experiment.
func SmallScale() Scale {
	return Scale{
		Name:        "small",
		GowallaBits: 16, GowallaNs: []int{2000, 4000, 6000, 8000, 10000},
		USPSBits: 14, USPSN: 8000,
		QueriesPerPoint: 20,
		RangePercents:   []float64{10, 25, 50, 75, 100},
		Fig8Bits:        20, Fig8Reps: 50,
		PBMaxN:       10000,
		TSetCapacity: 512, TSetExpand: 1.4,
	}
}

// MediumScale approximates the paper's shapes with ~minutes per
// experiment.
func MediumScale() Scale {
	return Scale{
		Name:        "medium",
		GowallaBits: 20, GowallaNs: []int{20000, 40000, 60000, 80000, 100000},
		USPSBits: 16, USPSN: 50000,
		QueriesPerPoint: 50,
		RangePercents:   []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Fig8Bits:        20, Fig8Reps: 200,
		PBMaxN:       40000,
		TSetCapacity: sse.DefaultBucketCapacity, TSetExpand: sse.DefaultExpansion,
	}
}

// PaperScale mirrors the paper's dataset sizes (hours of CPU; the
// Constant schemes' O(R) expansions over 2^27 domains dominate).
func PaperScale() Scale {
	return Scale{
		Name:        "paper",
		GowallaBits: 27,
		GowallaNs:   []int{500000, 1000000, 1500000, 2000000, 2500000, 3000000, 3500000, 4000000, 4500000, 5000000},
		USPSBits:    19, USPSN: 389032,
		QueriesPerPoint: 200,
		RangePercents:   []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Fig8Bits:        20, Fig8Reps: 1000,
		PBMaxN:       500000,
		TSetCapacity: sse.DefaultBucketCapacity, TSetExpand: sse.DefaultExpansion,
	}
}

// ScaleByName resolves "small", "medium" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "small":
		return SmallScale(), nil
	case "medium":
		return MediumScale(), nil
	case "paper":
		return PaperScale(), nil
	default:
		return Scale{}, fmt.Errorf("benchutil: unknown scale %q (small|medium|paper)", name)
	}
}

// sseScheme returns the harness's SSE construction (the paper's choice).
func (s Scale) sseScheme() sse.Scheme {
	return sse.TSet{BucketCapacity: s.TSetCapacity, Expansion: s.TSetExpand}
}

// clientOptions builds deterministic scheme options for the harness.
func (s Scale) clientOptions(seed int64) core.Options {
	return core.Options{
		SSE:               s.sseScheme(),
		Rand:              newRand(seed),
		AllowIntersecting: true, // random query workloads intersect freely
	}
}

// Series is one labelled curve: Y[i] measured at X[i].
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Experiment is one reproduced table or figure.
type Experiment struct {
	Name   string // e.g. "Figure 5(a)"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// rowLabels, when set, names the rows of a table-style experiment
	// (Table 2) instead of numeric X values.
	rowLabels []string
}

// Print renders the experiment as an aligned table, one row per X value
// and one column per series — the same rows/curves the paper plots.
func (e *Experiment) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", e.Name, e.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	header := e.XLabel
	for _, s := range e.Series {
		header += "\t" + s.Label
	}
	fmt.Fprintf(tw, "%s\n", header)
	if len(e.Series) > 0 {
		for i := range e.Series[0].X {
			row := formatX(e.Series[0].X[i])
			if i < len(e.rowLabels) {
				row = e.rowLabels[i]
			}
			for _, s := range e.Series {
				if i < len(s.Y) {
					row += "\t" + formatY(s.Y[i])
				} else {
					row += "\t-"
				}
			}
			fmt.Fprintf(tw, "%s\n", row)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "(y: %s)\n", e.YLabel)
}

func formatX(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.2f", x)
}

func formatY(y float64) string {
	switch {
	case math.IsNaN(y):
		return "-"
	case y == 0:
		return "0"
	case y >= 1000:
		return fmt.Sprintf("%.0f", y)
	case y >= 10:
		return fmt.Sprintf("%.1f", y)
	case y >= 0.01:
		return fmt.Sprintf("%.3f", y)
	default:
		return fmt.Sprintf("%.2e", y)
	}
}

// SeriesByLabel finds a series in an experiment; nil if absent.
func (e *Experiment) SeriesByLabel(label string) *Series {
	for i := range e.Series {
		if e.Series[i].Label == label {
			return &e.Series[i]
		}
	}
	return nil
}
