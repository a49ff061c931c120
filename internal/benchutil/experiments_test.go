package benchutil

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinyScale keeps experiment tests fast.
func tinyScale() Scale {
	return Scale{
		Name:        "tiny",
		GowallaBits: 12, GowallaNs: []int{500, 1000},
		USPSBits: 12, USPSN: 800,
		QueriesPerPoint: 12,
		RangePercents:   []float64{10, 50, 100},
		Fig8Bits:        20, Fig8Reps: 3,
		PBMaxN:       1000,
		TSetCapacity: 128, TSetExpand: 1.75,
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"small", "medium", "paper"} {
		s, err := ScaleByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ScaleByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}

func TestFig5Shapes(t *testing.T) {
	s := tinyScale()
	sizeExp, timeExp, err := Fig5(s)
	if err != nil {
		t.Fatal(err)
	}
	// Sizes grow with n for every scheme.
	for _, series := range sizeExp.Series {
		if len(series.Y) != len(s.GowallaNs) {
			t.Fatalf("%s: %d points", series.Label, len(series.Y))
		}
		if !math.IsNaN(series.Y[0]) && series.Y[len(series.Y)-1] <= series.Y[0] {
			t.Errorf("%s: size does not grow with n: %v", series.Label, series.Y)
		}
	}
	// Ordering at the largest n: Constant <= Log-BRC/URC <= Log-SRC.
	constant := sizeExp.SeriesByLabel("Constant-BRC/URC")
	logbrc := sizeExp.SeriesByLabel("Logarithmic-BRC/URC")
	logsrc := sizeExp.SeriesByLabel("Logarithmic-SRC")
	last := len(constant.Y) - 1
	if !(constant.Y[last] < logbrc.Y[last] && logbrc.Y[last] < logsrc.Y[last]) {
		t.Errorf("size ordering violated: constant=%v logbrc=%v logsrc=%v",
			constant.Y[last], logbrc.Y[last], logsrc.Y[last])
	}
	_ = timeExp // time shapes are hardware-dependent; only check presence
	if len(timeExp.Series) != len(sizeExp.Series) {
		t.Error("time experiment missing series")
	}
	var buf bytes.Buffer
	sizeExp.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 5(a)") {
		t.Error("Print output missing title")
	}
}

func TestTable2(t *testing.T) {
	exp, err := Table2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Series) != 2 {
		t.Fatalf("Table2 has %d series", len(exp.Series))
	}
	if len(exp.rowLabels) < 4 {
		t.Fatalf("Table2 has %d rows", len(exp.rowLabels))
	}
	var buf bytes.Buffer
	exp.Print(&buf)
	if !strings.Contains(buf.String(), "Logarithmic-SRC-i") {
		t.Error("Table2 output missing scheme row")
	}
}

func TestFig6Shapes(t *testing.T) {
	gowalla, usps, err := Fig6(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []*Experiment{gowalla, usps} {
		srci := exp.SeriesByLabel("Logarithmic-SRC-i")
		src := exp.SeriesByLabel("Logarithmic-SRC")
		if srci == nil || src == nil {
			t.Fatal("missing series")
		}
		// Rates are valid fractions.
		for i := range src.Y {
			if src.Y[i] < 0 || src.Y[i] > 1 || srci.Y[i] < 0 || srci.Y[i] > 1 {
				t.Errorf("%s: FP rate outside [0,1]", exp.Name)
			}
		}
		// At full domain there are no false positives.
		if src.Y[len(src.Y)-1] != 0 {
			t.Errorf("%s: SRC FP rate at 100%% = %v", exp.Name, src.Y[len(src.Y)-1])
		}
	}
	// On skewed data SRC-i must not lose to SRC on average.
	var srcSum, srciSum float64
	for i := range usps.SeriesByLabel("Logarithmic-SRC").Y {
		srcSum += usps.SeriesByLabel("Logarithmic-SRC").Y[i]
		srciSum += usps.SeriesByLabel("Logarithmic-SRC-i").Y[i]
	}
	if srciSum > srcSum {
		t.Errorf("SRC-i average FP rate (%v) worse than SRC (%v) on skewed data", srciSum, srcSum)
	}
}

func TestFig7Runs(t *testing.T) {
	gowalla, usps, err := Fig7(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range []*Experiment{gowalla, usps} {
		if exp.SeriesByLabel("SSE (floor)") == nil {
			t.Fatalf("%s: missing pure SSE floor", exp.Name)
		}
		if exp.SeriesByLabel("PB (Li et al.)") == nil {
			t.Fatalf("%s: missing PB baseline", exp.Name)
		}
		for _, series := range exp.Series {
			for _, y := range series.Y {
				if y < 0 {
					t.Errorf("%s %s: negative time", exp.Name, series.Label)
				}
			}
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	sizeExp, timeExp, err := Fig8(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	srci := sizeExp.SeriesByLabel("Logarithmic-SRC-i")
	src := sizeExp.SeriesByLabel("Logarithmic-SRC")
	brc := sizeExp.SeriesByLabel("Constant/Log-BRC")
	urc := sizeExp.SeriesByLabel("Constant/Log-URC")
	pbSeries := sizeExp.SeriesByLabel("PB (Li et al.)")
	if srci == nil || src == nil || brc == nil || urc == nil || pbSeries == nil {
		t.Fatal("missing series")
	}
	for i := range src.X {
		// SRC/SRC-i are constant-size.
		if src.Y[i] != src.Y[0] || srci.Y[i] != srci.Y[0] {
			t.Error("SRC/SRC-i query size not constant")
		}
		// SRC-i = 2 tokens, SRC = 1.
		if srci.Y[i] != 2*src.Y[i] {
			t.Error("SRC-i should cost exactly two SRC tokens")
		}
		// PB is the largest (one digest per level per BRC node).
		if pbSeries.Y[i] <= brc.Y[i] {
			t.Errorf("R=%v: PB (%v) not above BRC (%v)", src.X[i], pbSeries.Y[i], brc.Y[i])
		}
	}
	// BRC grows (on average) with R; URC >= BRC everywhere.
	if brc.Y[len(brc.Y)-1] <= brc.Y[0] {
		t.Error("BRC query size does not grow with R")
	}
	for i := range brc.Y {
		if urc.Y[i] < brc.Y[i] {
			t.Errorf("R=%v: URC (%v) below BRC (%v)", brc.X[i], urc.Y[i], brc.Y[i])
		}
	}
	if len(timeExp.Series) != len(sizeExp.Series) {
		t.Error("Fig8 time experiment missing series")
	}
}

func TestTable1Verification(t *testing.T) {
	rows, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	// O(1) query size for the SRC schemes.
	if r := byName["Logarithmic-SRC"]; r.TokensSmallR != 1 || r.TokensLargeR != 1 {
		t.Errorf("SRC tokens: %+v", r)
	}
	if r := byName["Logarithmic-SRC-i"]; r.TokensSmallR != 2 || r.TokensLargeR != 2 {
		t.Errorf("SRC-i tokens: %+v", r)
	}
	// O(log R) growth for the cover schemes.
	for _, name := range []string{"Constant-BRC", "Constant-URC", "Logarithmic-BRC", "Logarithmic-URC"} {
		r := byName[name]
		if r.TokensLargeR <= r.TokensSmallR {
			t.Errorf("%s: tokens did not grow with R: %+v", name, r)
		}
		if r.TokensLargeR > 26 {
			t.Errorf("%s: tokens exceed 2log2(R)+2: %+v", name, r)
		}
		if r.FalsePositives != 0 {
			t.Errorf("%s: unexpected false positives", name)
		}
	}
	// Storage expansion: Constant ~1x, Logarithmic ~log m.
	if r := byName["Constant-BRC"]; r.ExpansionFactor != 1 {
		t.Errorf("Constant expansion = %v", r.ExpansionFactor)
	}
	if r := byName["Logarithmic-BRC"]; r.ExpansionFactor < 10 || r.ExpansionFactor > 20 {
		t.Errorf("Logarithmic expansion = %v (want ~log2(2^16)+1 = 17)", r.ExpansionFactor)
	}
	var buf bytes.Buffer
	PrintTable1(rows, &buf)
	if !strings.Contains(buf.String(), "paper claims") {
		t.Error("PrintTable1 output malformed")
	}
}

func TestUpdatesExperiment(t *testing.T) {
	active, summaries, err := Updates(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(active.Series) != 3 || len(summaries) != 3 {
		t.Fatalf("expected 3 steps, got %d/%d", len(active.Series), len(summaries))
	}
	for _, series := range active.Series {
		for i, y := range series.Y {
			if y < 1 {
				t.Errorf("%s: no active index after batch %d", series.Label, i+1)
			}
			if y > 4*6 {
				t.Errorf("%s: %v active indexes exceeds the s*log_s b bound", series.Label, y)
			}
		}
	}
	for _, s := range summaries {
		if s.TotalSize <= 0 || s.QueryTokens <= 0 {
			t.Errorf("summary malformed: %+v", s)
		}
	}
}

// TestAblationShapes: the TDAG's single-range-cover window never
// exceeds 4R (Lemma 1), and the plain binary tree's worst window is at
// least the TDAG's at every range size — the reason the injected nodes
// exist.
func TestAblationShapes(t *testing.T) {
	exp, err := AblationSRC(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tdagMax, naiveMax := exp.SeriesByLabel("TDAG max"), exp.SeriesByLabel("binary-tree max")
	if tdagMax == nil || naiveMax == nil || len(tdagMax.Y) == 0 || len(tdagMax.Y) != len(naiveMax.Y) {
		t.Fatalf("ablation series missing or ragged: %+v", exp.Series)
	}
	for i, R := range tdagMax.X {
		if tdagMax.Y[i] > 4 {
			t.Errorf("R=%v: TDAG max window/R = %v exceeds Lemma 1's bound of 4", R, tdagMax.Y[i])
		}
		if naiveMax.Y[i] < tdagMax.Y[i] {
			t.Errorf("R=%v: binary-tree max %v below TDAG max %v", R, naiveMax.Y[i], tdagMax.Y[i])
		}
	}
}
