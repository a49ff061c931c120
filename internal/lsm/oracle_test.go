package lsm

import (
	"bytes"
	"context"
	"fmt"
	mrand "math/rand"
	"sort"
	"testing"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/sse"
)

// oracleStore is the plaintext reference semantics of a Dynamic store: a
// plain map updated by the same operation stream.
type oracleStore struct {
	live map[core.ID]core.Tuple
}

func newOracle() *oracleStore { return &oracleStore{live: map[core.ID]core.Tuple{}} }

func (o *oracleStore) insert(id core.ID, v core.Value, p []byte) {
	o.live[id] = core.Tuple{ID: id, Value: v, Payload: p}
}

func (o *oracleStore) delete(id core.ID) { delete(o.live, id) }

func (o *oracleStore) query(q core.Range) []core.Tuple {
	var out []core.Tuple
	for _, t := range o.live {
		if q.Contains(t.Value) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestRandomizedAgainstOracle drives a long random stream of inserts,
// deletes, modifies and flushes through the manager and checks every few
// steps that range queries agree exactly with the plaintext oracle —
// including payload contents.
func TestRandomizedAgainstOracle(t *testing.T) {
	const bits = 10
	m, err := NewManager(core.LogarithmicBRC, cover.Domain{Bits: bits}, 3, core.Options{
		SSE:  sse.Basic{},
		Rand: mrand.New(mrand.NewSource(101)),
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracle()
	rnd := mrand.New(mrand.NewSource(102))
	nextID := core.ID(1)
	// Values of live tuples, needed to issue correct deletes.
	values := map[core.ID]core.Value{}

	checkAgree := func(step int) {
		for trial := 0; trial < 3; trial++ {
			R := uint64(1) + rnd.Uint64()%1023
			lo := rnd.Uint64() % ((1 << bits) - R)
			q := core.Range{Lo: lo, Hi: lo + R - 1}
			got, _, err := m.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
			want := oracle.query(q)
			if len(got) != len(want) {
				t.Fatalf("step %d query %v: got %d tuples, want %d", step, q, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Value != want[i].Value ||
					!bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("step %d query %v: tuple %d differs: %+v vs %+v",
						step, q, i, got[i], want[i])
				}
			}
		}
	}

	for step := 0; step < 400; step++ {
		switch op := rnd.Intn(10); {
		case op < 6: // insert
			v := rnd.Uint64() % (1 << bits)
			payload := []byte(fmt.Sprintf("p%d", nextID))
			m.Insert(nextID, v, payload)
			oracle.insert(nextID, v, payload)
			values[nextID] = v
			nextID++
		case op < 8: // delete a random live tuple
			if len(values) == 0 {
				continue
			}
			var victim core.ID
			for id := range values {
				victim = id
				break
			}
			m.Delete(victim, values[victim])
			oracle.delete(victim)
			delete(values, victim)
		case op < 9: // modify a random live tuple
			if len(values) == 0 {
				continue
			}
			var target core.ID
			for id := range values {
				target = id
				break
			}
			newV := rnd.Uint64() % (1 << bits)
			payload := []byte(fmt.Sprintf("mod%d", step))
			m.Modify(target, values[target], newV, payload)
			oracle.insert(target, newV, payload)
			values[target] = newV
		default: // flush
			if err := m.Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", step, err)
			}
		}
		if step%80 == 79 {
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			checkAgree(step)
		}
	}
	if err := m.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	checkAgree(400)
	if m.ActiveIndexes() != 1 {
		t.Errorf("after full consolidation: %d active indexes", m.ActiveIndexes())
	}
}
