package benchutil

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/dataset"
)

// Table1Row is the empirical verification of one row of the paper's
// Table 1 (the asymptotic comparison of all schemes).
type Table1Row struct {
	Scheme string
	// TokensSmallR / TokensLargeR: measured query token counts for two
	// range sizes (64 and 4096). O(1) schemes show equal values; O(log R)
	// schemes grow by a constant number of tokens.
	TokensSmallR int
	TokensLargeR int
	// ExpansionFactor is postings/n — the storage blow-up over the raw
	// dataset (1 for Constant, ~log m for the Logarithmic schemes, m^2/4
	// for Quadratic).
	ExpansionFactor float64
	// FalsePositives is the total across the probe queries.
	FalsePositives int
	// Rounds per query.
	Rounds int
}

// Table1 measures the asymptotic claims of the paper's Table 1 on a
// mid-size uniform dataset: query size growth, storage expansion factor,
// false positive behaviour, and round count.
func Table1(s Scale) ([]Table1Row, error) {
	const bits = 16
	n := 20000
	dom := cover.Domain{Bits: bits}
	tuples := dataset.Uniform(n, bits, 30)
	smallQ := dataset.Queries(8, dom, 64, 31)
	largeQ := dataset.Queries(8, dom, 4096, 32)

	var rows []Table1Row
	for _, kind := range []core.Kind{
		core.ConstantBRC, core.ConstantURC,
		core.LogarithmicBRC, core.LogarithmicURC,
		core.LogarithmicSRC, core.LogarithmicSRCi,
	} {
		client, err := buildClient(s, kind, bits, 33)
		if err != nil {
			return nil, err
		}
		idx, err := client.BuildIndex(tuples)
		if err != nil {
			return nil, err
		}
		row := Table1Row{Scheme: kind.String()}
		row.ExpansionFactor = float64(idx.Postings()) / float64(n)
		measure := func(queries []core.Range) (int, int, int, error) {
			maxTokens, fps, rounds := 0, 0, 0
			for _, q := range queries {
				res, err := client.QueryContext(context.Background(), idx, q)
				if err != nil {
					return 0, 0, 0, err
				}
				if res.Stats.Tokens > maxTokens {
					maxTokens = res.Stats.Tokens
				}
				fps += res.Stats.FalsePositives
				rounds = res.Stats.Rounds
			}
			return maxTokens, fps, rounds, nil
		}
		var fps1, fps2 int
		row.TokensSmallR, fps1, _, err = measure(smallQ)
		if err != nil {
			return nil, err
		}
		row.TokensLargeR, fps2, row.Rounds, err = measure(largeQ)
		if err != nil {
			return nil, err
		}
		row.FalsePositives = fps1 + fps2
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable1 renders the verification table next to the paper's claims.
func PrintTable1(rows []Table1Row, w io.Writer) {
	fmt.Fprintf(w, "\nTable 1 — empirical verification (uniform data, n=20000, m=2^16)\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scheme\ttokens R=64\ttokens R=4096\texpansion\tfalse pos.\trounds\tpaper claims\n")
	claims := map[string]string{
		"Constant-BRC":      "O(logR) query, O(n) storage, none",
		"Constant-URC":      "O(logR) query, O(n) storage, none",
		"Logarithmic-BRC":   "O(logR) query, O(n logm) storage, none",
		"Logarithmic-URC":   "O(logR) query, O(n logm) storage, none",
		"Logarithmic-SRC":   "O(1) query, O(n logm) storage, O(n)",
		"Logarithmic-SRC-i": "O(1) query, O(n logm) storage, O(R+r)",
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1fx\t%d\t%d\t%s\n",
			r.Scheme, r.TokensSmallR, r.TokensLargeR, r.ExpansionFactor,
			r.FalsePositives, r.Rounds, claims[r.Scheme])
	}
	tw.Flush()
}
