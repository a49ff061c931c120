// Salaries: range search under heavy data skew — the USPS-style workload
// where Logarithmic-SRC degrades and Logarithmic-SRC-i shines
// (Sections 6.2-6.3, Figure 6(b)).
//
// A payroll processor outsources employee records queryable by annual
// salary. Salaries are heavily skewed: a handful of standard pay grades
// cover most of the workforce. This example shows Logarithmic-SRC
// dragging in the hot pay grade as false positives while the interactive
// Logarithmic-SRC-i caps the overshoot at 4x the true result.
//
// Run with: go run ./examples/salaries
package main

import (
	"context"
	"fmt"
	"log"
	mrand "math/rand"

	"rsse"
)

const domainBits = 19 // salaries up to ~524k, like the paper's USPS field

func main() {
	rnd := mrand.New(mrand.NewSource(42))

	// 10000 employees, 90% of them on five standard pay grades, the rest
	// spread thinly — roughly the paper's "5% distinct values".
	grades := []uint64{31200, 38750, 45000, 52300, 61800}
	tuples := make([]rsse.Tuple, 10000)
	for i := range tuples {
		var salary uint64
		if rnd.Float64() < 0.9 {
			salary = grades[rnd.Intn(len(grades))]
		} else {
			salary = 25000 + rnd.Uint64()%175000
		}
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: salary,
			Payload: fmt.Appendf(nil, "employee-%05d", i)}
	}

	// Queries around (but not over) the hot grades: narrow audit windows.
	queries := []rsse.Range{
		{Lo: 45100, Hi: 46100}, // just above a hot grade
		{Lo: 53000, Hi: 56000},
		{Lo: 39000, Hi: 41000},
		{Lo: 62000, Hi: 70000},
		{Lo: 30000, Hi: 31000}, // just below a hot grade
	}

	for _, kind := range []rsse.Kind{rsse.LogarithmicSRC, rsse.LogarithmicSRCi} {
		client, err := rsse.NewClient(kind, domainBits, rsse.WithSeed(3))
		if err != nil {
			log.Fatal(err)
		}
		index, err := client.BuildIndex(tuples)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s (index %.1f MB)\n", kind, float64(index.Size())/(1<<20))
		fmt.Printf("  %-22s %8s %8s %8s\n", "query", "matches", "returned", "FPs")
		for _, q := range queries {
			res, err := client.QueryContext(context.Background(), index, q)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-22s %8d %8d %8d\n",
				q.String(), len(res.Matches), res.Stats.Raw, res.Stats.FalsePositives)
		}
	}
	fmt.Println("\nSRC's single window swallows a hot pay grade whenever the query")
	fmt.Println("lands near one; SRC-i's second round keeps returns within 4x of")
	fmt.Println("the true result regardless of skew.")
}
