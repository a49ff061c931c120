package rsse_test

import (
	"context"
	"errors"
	mrand "math/rand"
	"net"
	"reflect"
	"testing"

	"rsse"
)

func genMultiTuples(n int, bits []uint8, seed int64) []rsse.MultiTuple {
	rnd := mrand.New(mrand.NewSource(seed))
	out := make([]rsse.MultiTuple, n)
	for i := range out {
		values := make([]rsse.Value, len(bits))
		for d, b := range bits {
			values[d] = rnd.Uint64() % (1 << b)
		}
		out[i] = rsse.MultiTuple{
			ID:      uint64(i + 1),
			Values:  values,
			Payload: []byte{byte(i)},
		}
	}
	return out
}

func multiOracle(tuples []rsse.MultiTuple, q rsse.MultiRange) []rsse.ID {
	var out []rsse.ID
	for _, t := range tuples {
		ok := true
		for d, r := range q {
			if !r.Contains(t.Values[d]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t.ID)
		}
	}
	return out
}

// multiSources is every attribute index as a Source: the local indexes
// themselves, or remote handles, each over a pipe of its own.
func multiSources(t *testing.T, indexes []*rsse.Index, remote bool) []rsse.Source {
	t.Helper()
	srcs := make([]rsse.Source, len(indexes))
	for d, idx := range indexes {
		srcs[d] = idx
		if remote {
			cliConn, srvConn := net.Pipe()
			go func() { _ = rsse.ServeConn(srvConn, idx) }()
			r := rsse.NewRemoteIndex(cliConn)
			t.Cleanup(func() { r.Close() })
			srcs[d] = r
		}
	}
	return srcs
}

func TestMultiDimMatchesOracle(t *testing.T) {
	bits := []uint8{10, 8, 12}
	tuples := genMultiTuples(400, bits, 1)
	ids := make([]rsse.ID, len(tuples))
	for i, tup := range tuples {
		ids[i] = tup.ID
	}
	for _, kind := range []rsse.Kind{rsse.LogarithmicBRC, rsse.LogarithmicSRC, rsse.LogarithmicSRCi} {
		mc, err := rsse.NewMultiClient(kind, bits, rsse.WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		indexes, err := mc.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		for _, remote := range []bool{false, true} {
			srcs := multiSources(t, indexes, remote)
			rnd := mrand.New(mrand.NewSource(3))
			for trial := 0; trial < 10; trial++ {
				q := make(rsse.MultiRange, len(bits))
				for d, b := range bits {
					size := uint64(1) << b
					R := uint64(1) + rnd.Uint64()%(size/2)
					lo := rnd.Uint64() % (size - R)
					q[d] = rsse.Range{Lo: lo, Hi: lo + R - 1}
				}
				res, err := mc.QueryContext(context.Background(), srcs, q)
				if err != nil {
					t.Fatalf("%v remote=%v: %v", kind, remote, err)
				}
				want := multiOracle(tuples, q)
				if !equal(sorted(res.Matches), sorted(want)) {
					t.Fatalf("%v remote=%v: query %v: got %d, want %d", kind, remote, q, len(res.Matches), len(want))
				}
				// Per-attribute counts can only shrink after intersection.
				for d, per := range res.PerAttribute {
					if per < len(res.Matches) {
						t.Fatalf("%v remote=%v: attribute %d matched %d < final %d", kind, remote, d, per, len(res.Matches))
					}
				}
			}
			// Every tuple comes back whole, remote as local.
			got, err := mc.FetchTuples(context.Background(), srcs, ids)
			if err != nil {
				t.Fatalf("%v remote=%v: %v", kind, remote, err)
			}
			if !reflect.DeepEqual(got, tuples) {
				t.Fatalf("%v remote=%v: FetchTuples differs from the tuples built", kind, remote)
			}
		}
	}
}

func TestMultiDimUnconstrainedAttribute(t *testing.T) {
	bits := []uint8{8, 8}
	tuples := genMultiTuples(100, bits, 4)
	mc, err := rsse.NewMultiClient(rsse.LogarithmicBRC, bits, rsse.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	indexes, err := mc.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	// Second attribute unconstrained (full domain): equivalent to a
	// single-attribute query on the first.
	q := rsse.MultiRange{{Lo: 50, Hi: 150}, {Lo: 0, Hi: 255}}
	res, err := mc.QueryContext(context.Background(), multiSources(t, indexes, false), q)
	if err != nil {
		t.Fatal(err)
	}
	want := multiOracle(tuples, q)
	if !equal(sorted(res.Matches), sorted(want)) {
		t.Fatalf("got %d, want %d", len(res.Matches), len(want))
	}
}

func TestMultiDimFetchTuple(t *testing.T) {
	bits := []uint8{10, 10}
	tuples := genMultiTuples(50, bits, 6)
	mc, err := rsse.NewMultiClient(rsse.LogarithmicSRC, bits, rsse.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	indexes, err := mc.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := mc.FetchTuples(context.Background(), multiSources(t, indexes, false), []rsse.ID{tuples[7].ID})
	if err != nil {
		t.Fatal(err)
	}
	got := fetched[0]
	if got.Values[0] != tuples[7].Values[0] || got.Values[1] != tuples[7].Values[1] {
		t.Errorf("values = %v, want %v", got.Values, tuples[7].Values)
	}
	if string(got.Payload) != string(tuples[7].Payload) {
		t.Error("payload lost")
	}
}

func TestMultiDimValidation(t *testing.T) {
	if _, err := rsse.NewMultiClient(rsse.LogarithmicBRC, nil); err == nil {
		t.Error("zero attributes accepted")
	}
	mc, err := rsse.NewMultiClient(rsse.LogarithmicBRC, []uint8{8, 8}, rsse.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if mc.Attributes() != 2 || mc.Kind() != rsse.LogarithmicBRC {
		t.Error("accessors wrong")
	}
	if _, err := mc.BuildIndex([]rsse.MultiTuple{{ID: 1, Values: []rsse.Value{1}}}); !errors.Is(err, rsse.ErrDimensionMismatch) {
		t.Errorf("dimension mismatch error = %v", err)
	}
	indexes, err := mc.BuildIndex(genMultiTuples(10, []uint8{8, 8}, 9))
	if err != nil {
		t.Fatal(err)
	}
	if len(indexes) != 2 || indexes[0].Size() <= 0 {
		t.Error("one index per attribute expected")
	}
	srcs := multiSources(t, indexes, false)
	if _, err := mc.QueryContext(context.Background(), srcs, rsse.MultiRange{{Lo: 0, Hi: 1}}); !errors.Is(err, rsse.ErrDimensionMismatch) {
		t.Errorf("query dimension mismatch error = %v", err)
	}
	full := rsse.MultiRange{{Lo: 0, Hi: 255}, {Lo: 0, Hi: 255}}
	if _, err := mc.QueryContext(context.Background(), srcs[:1], full); !errors.Is(err, rsse.ErrDimensionMismatch) {
		t.Errorf("source count mismatch error = %v", err)
	}
	if _, err := mc.FetchTuples(context.Background(), srcs[:1], []rsse.ID{1}); !errors.Is(err, rsse.ErrDimensionMismatch) {
		t.Errorf("fetch source count mismatch error = %v", err)
	}
}

// TestMultiDimMasterKeyDerivation: a MultiClient rebuilt from the same
// master key must be able to query an existing index.
func TestMultiDimMasterKeyDerivation(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 3)
	}
	bits := []uint8{9, 9}
	tuples := genMultiTuples(80, bits, 10)
	a, err := rsse.NewMultiClient(rsse.LogarithmicBRC, bits, rsse.WithMasterKey(key), rsse.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	indexes, err := a.BuildIndex(tuples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rsse.NewMultiClient(rsse.LogarithmicBRC, bits, rsse.WithMasterKey(key), rsse.WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	q := rsse.MultiRange{{Lo: 0, Hi: 511}, {Lo: 100, Hi: 400}}
	res, err := b.QueryContext(context.Background(), multiSources(t, indexes, false), q)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(sorted(res.Matches), sorted(multiOracle(tuples, q))) {
		t.Error("rebuilt multi-client cannot query the index")
	}
}

// TestMultiDimStatsSumAttributes: a conjunctive query's Stats add up
// every attribute's, the leakage lists included: one group and one
// token level per token sent, over both attributes. Rounds is the
// maximum, since the attributes run concurrently.
func TestMultiDimStatsSumAttributes(t *testing.T) {
	bits := []uint8{8, 8}
	mc, err := rsse.NewMultiClient(rsse.ConstantBRC, bits, rsse.WithSeed(13))
	must(t, err)
	tuples := genMultiTuples(60, bits, 14)
	indexes, err := mc.BuildIndex(tuples)
	must(t, err)
	q := rsse.MultiRange{{Lo: 3, Hi: 200}, {Lo: 17, Hi: 130}}
	res, err := mc.QueryContext(context.Background(), multiSources(t, indexes, false), q)
	must(t, err)
	if !equal(sorted(res.Matches), sorted(multiOracle(tuples, q))) {
		t.Fatal("conjunctive matches wrong")
	}
	st := res.Stats
	if st.Tokens == 0 || len(st.Groups) != st.Tokens || len(st.TokenLevels) != st.Tokens {
		t.Fatalf("tokens %d, groups %d, token levels %d: want equal and positive",
			st.Tokens, len(st.Groups), len(st.TokenLevels))
	}
	if st.OwnerTime <= 0 {
		t.Fatalf("owner time %v, want the attributes' sum", st.OwnerTime)
	}
	if st.Rounds != 1 {
		t.Fatalf("rounds %d, want 1: the one-round attributes overlap", st.Rounds)
	}
}
