// Quickstart: outsource an encrypted table and run private range queries.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"rsse"
)

func main() {
	// The owner picks a scheme and a domain. Logarithmic-SRC-i is the
	// paper's best security/efficiency trade-off: constant query size,
	// bounded false positives even under skew.
	ctx := context.Background()
	client, err := rsse.NewClient(rsse.LogarithmicSRCi, 16) // values in 0..65535
	if err != nil {
		log.Fatal(err)
	}

	// A toy employee table; Value is the queryable attribute (age, say),
	// Payload is the record body, stored encrypted.
	tuples := []rsse.Tuple{
		{ID: 1, Value: 34, Payload: []byte("alice | engineering")},
		{ID: 2, Value: 29, Payload: []byte("bob   | sales")},
		{ID: 3, Value: 41, Payload: []byte("carol | research")},
		{ID: 4, Value: 34, Payload: []byte("dave  | operations")},
		{ID: 5, Value: 57, Payload: []byte("erin  | management")},
	}

	// BuildIndex produces the server-side state: encrypted indexes plus
	// the encrypted tuple store. No key material inside.
	index, err := client.BuildIndex(tuples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outsourced %d tuples: index %d bytes, encrypted store %d bytes\n",
		index.N(), index.Size(), index.StoreSize())

	// Query: who is between 30 and 45? The server executes the search on
	// ciphertext; the owner filters any false positives and decrypts.
	q := rsse.Range{Lo: 30, Hi: 45}
	res, err := client.QueryContext(ctx, index, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery %v → %d matches (%d rounds, %d token bytes, %d false positives dropped)\n",
		q, len(res.Matches), res.Stats.Rounds, res.Stats.TokenBytes, res.Stats.FalsePositives)

	// One fetch round decrypts every match's payload.
	matches, err := client.FetchTuples(ctx, index, res.Matches)
	if err != nil {
		log.Fatal(err)
	}
	for _, tup := range matches {
		fmt.Printf("  id %d  value %2d  %s\n", tup.ID, tup.Value, tup.Payload)
	}
}
