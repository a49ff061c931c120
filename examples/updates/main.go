// Updates: batched inserts, deletions and modifications with forward
// privacy (Section 7 of the paper).
//
// An IoT fleet appends sensor readings in batches; stale readings are
// deleted, corrected ones are modified. Each flushed batch becomes an
// independent static index under fresh keys; batches consolidate like a
// log-structured merge tree so the server never holds more than
// O(s log_s b) indexes.
//
// Run with: go run ./examples/updates
package main

import (
	"context"
	"fmt"
	"log"
	mrand "math/rand"

	"rsse"
)

func main() {
	// Readings in 0..2^16, consolidation step s = 3.
	store, err := rsse.NewDynamic(rsse.LogarithmicURC, 16, 3, rsse.WithSeed(9))
	if err != nil {
		log.Fatal(err)
	}
	rnd := mrand.New(mrand.NewSource(1))

	nextID := uint64(1)
	fmt.Printf("%6s %8s %14s %12s\n", "batch", "ops", "activeIndexes", "totalIndex")
	for batch := 1; batch <= 10; batch++ {
		for i := 0; i < 200; i++ {
			store.Insert(nextID, rnd.Uint64()%65536, fmt.Appendf(nil, "reading-%d", nextID))
			nextID++
		}
		if err := store.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %8d %14d %10.1fKB\n",
			batch, 200, store.ActiveIndexes(), float64(store.TotalIndexSize())/1024)
	}

	q := rsse.Range{Lo: 10000, Hi: 20000}
	tuples, stats, err := store.QueryContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery %v: %d live readings across %d indexes (%d tokens)\n",
		q, len(tuples), stats.Indexes, stats.Tokens)

	// Correct one reading and delete another; the changes land in a new
	// batch — older indexes are never touched (forward privacy: tokens
	// issued before this flush cannot match the new batch).
	victim, corrected := tuples[0], tuples[1]
	store.Delete(victim.ID, victim.Value)
	store.Modify(corrected.ID, corrected.Value, 15000, []byte("corrected"))
	if err := store.Flush(); err != nil {
		log.Fatal(err)
	}
	after, _, err := store.QueryContext(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after delete+modify: %d live readings\n", len(after))
	for _, t := range after {
		if t.ID == corrected.ID && string(t.Payload) != "corrected" {
			log.Fatalf("modification lost: %+v", t)
		}
		if t.ID == victim.ID {
			log.Fatalf("deleted reading still visible: %+v", t)
		}
	}

	// Periodic global rebuild: one index, tombstones gone.
	if err := store.FullConsolidate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after full consolidation: %d active index (size %.1fKB)\n",
		store.ActiveIndexes(), float64(store.TotalIndexSize())/1024)
}
