// Leakage: what does the server actually observe? This example makes the
// paper's leakage hierarchy (Table 1's Security column) tangible by
// printing, for each scheme, the query-time observables of the same
// workload: token counts, token level multisets, and result partitions.
//
// Run with: go run ./examples/leakage
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"rsse"
)

func main() {
	const bits = 12
	// A fixed dataset so group sizes are comparable across schemes.
	tuples := make([]rsse.Tuple, 0, 1024)
	for v := uint64(0); v < 4096; v += 4 {
		tuples = append(tuples, rsse.Tuple{ID: v/4 + 1, Value: v})
	}

	// Two queries of identical size R = 333 at different positions: what
	// can the server tell apart?
	qa := rsse.Range{Lo: 100, Hi: 432}
	qb := rsse.Range{Lo: 2111, Hi: 2443}

	for _, kind := range []rsse.Kind{
		rsse.ConstantBRC, rsse.ConstantURC,
		rsse.LogarithmicBRC, rsse.LogarithmicURC,
		rsse.LogarithmicSRC, rsse.LogarithmicSRCi,
	} {
		client, err := rsse.NewClient(kind, bits,
			rsse.WithSeed(5), rsse.AllowIntersectingQueries())
		if err != nil {
			log.Fatal(err)
		}
		index, err := client.BuildIndex(tuples)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", kind)
		for _, q := range []rsse.Range{qa, qb} {
			res, err := client.QueryContext(context.Background(), index, q)
			if err != nil {
				log.Fatal(err)
			}
			levels := append([]uint8(nil), res.Stats.TokenLevels...)
			sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
			groups := append([]int(nil), res.Stats.Groups...)
			sort.Ints(groups)
			fmt.Printf("  query %-14s tokens=%-2d", q.String(), res.Stats.Tokens)
			if len(levels) > 0 {
				fmt.Printf(" levels=%v", levels)
			}
			fmt.Printf(" groups=%v\n", groups)
		}
	}

	fmt.Println(`
Reading the output:
  - Constant/Logarithmic-BRC: token count AND level multiset vary with the
    query position — the server can sometimes tell where a range cannot be.
  - Constant/Logarithmic-URC: identical token counts and levels for any
    two same-size ranges; only the result partition sizes differ.
  - Logarithmic-SRC: a single token and a single undivided group — the
    server cannot even partition the results.
  - Logarithmic-SRC-i: two tokens (two rounds), still unpartitioned.`)
}
