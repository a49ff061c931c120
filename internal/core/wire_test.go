package core

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/storage"
)

func TestIndexMarshalRoundtripAllKinds(t *testing.T) {
	dom := cover.Domain{Bits: 9}
	tuples := uniformTuples(150, 9, 51)
	q := Range{100, 400}
	for _, kind := range nonQuadraticKinds() {
		opts := testOptions(52)
		opts.AllowIntersecting = true // the index is queried twice below
		c, err := NewClient(kind, dom, opts)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := c.BuildIndex(tuples)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.QueryContext(context.Background(), idx, q)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := idx.MarshalBinary()
		if err != nil {
			t.Fatalf("%v: marshal: %v", kind, err)
		}
		back, err := UnmarshalIndex(blob)
		if err != nil {
			t.Fatalf("%v: unmarshal: %v", kind, err)
		}
		if back.Kind() != kind || back.N() != idx.N() || back.Domain() != dom {
			t.Fatalf("%v: metadata lost", kind)
		}
		got, err := c.QueryContext(context.Background(), back, q)
		if err != nil {
			t.Fatalf("%v: query after roundtrip: %v", kind, err)
		}
		if !idsEqual(sortedIDs(got.Matches), sortedIDs(want.Matches)) {
			t.Fatalf("%v: results differ after roundtrip", kind)
		}
		// Tuple store survives too.
		tups, err := c.FetchTuples(context.Background(), back, []ID{tuples[0].ID})
		if err != nil || tups[0].Value != tuples[0].Value {
			t.Fatalf("%v: store lost in roundtrip: %v %v", kind, tups, err)
		}
	}
}

func TestIndexMarshalEmpty(t *testing.T) {
	c, err := NewClient(LogarithmicSRC, cover.Domain{Bits: 5}, testOptions(53))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryContext(context.Background(), back, Range{0, 31})
	if err != nil || len(res.Matches) != 0 {
		t.Fatalf("empty roundtrip broken: %v %v", res, err)
	}
}

func TestUnmarshalIndexRejectsGarbage(t *testing.T) {
	c, err := NewClient(LogarithmicBRC, cover.Domain{Bits: 6}, testOptions(54))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(20, 6, 55))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{},
		{99},                  // bad version
		blob[:len(blob)/2],    // truncated
		append(blob, 1, 2, 3), // trailing garbage
		{2, 1, 99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // domain bits too large
		append([]byte{1}, blob[1:]...),                    // the retired v1 version byte
	}
	for i, bad := range cases {
		if _, err := UnmarshalIndex(bad); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestIndexMarshalDeterministicSize(t *testing.T) {
	c, err := NewClient(ConstantBRC, cover.Domain{Bits: 8}, testOptions(56))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(40, 8, 57))
	if err != nil {
		t.Fatal(err)
	}
	a, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Error("marshal size not stable")
	}
}

// withoutAux rewrites an index blob with its aux section emptied.
func withoutAux(t testing.TB, blob []byte) []byte {
	t.Helper()
	r := wireReader{data: blob, off: 16}
	prim, err := r.lenPrefixed()
	if err != nil {
		t.Fatal(err)
	}
	if _, err = r.lenPrefixed(); err != nil {
		t.Fatal(err)
	}
	store, err := r.lenPrefixed()
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), blob[:16]...)
	out = binary.BigEndian.AppendUint64(out, uint64(len(prim)))
	out = append(out, prim...)
	out = binary.BigEndian.AppendUint64(out, 0)
	out = binary.BigEndian.AppendUint64(out, uint64(len(store)))
	return append(out, store...)
}

// TestUnmarshalIndexChecksShape: a header whose kind is not a scheme, or
// whose sections do not have that kind's shape — an aux index exactly
// when the kind is Logarithmic-SRC-i, whose first round searches it — is
// a corrupt index on every engine, not a nil dereference at the first
// query.
func TestUnmarshalIndexChecksShape(t *testing.T) {
	c, err := NewClient(LogarithmicSRCi, cover.Domain{Bits: 6}, testOptions(58))
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(20, 6, 59))
	if err != nil {
		t.Fatal(err)
	}
	srci, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	withKind := func(blob []byte, kind byte) []byte {
		out := append([]byte(nil), blob...)
		out[1] = kind
		return out
	}
	for _, tc := range []struct {
		name string
		blob []byte
		peek bool // PeekMeta already refuses the header
	}{
		{"SRC-i without its aux section", withoutAux(t, srci), false},
		{"aux section on Logarithmic-SRC", withKind(srci, byte(LogarithmicSRC)), false},
		{"aux section on Constant-BRC", withKind(srci, byte(ConstantBRC)), false},
		{"kind 7", withKind(srci, 7), true},
		{"kind 255", withKind(srci, 255), true},
	} {
		if _, err := PeekMeta(tc.blob); tc.peek != errors.Is(err, ErrCorruptIndex) {
			t.Errorf("%s: PeekMeta err %v", tc.name, err)
		}
		for _, eng := range append([]storage.Engine{nil}, storage.Engines()...) {
			if _, err := UnmarshalIndexWith(tc.blob, eng); !errors.Is(err, ErrCorruptIndex) {
				t.Errorf("%s onto %s: err %v, want ErrCorruptIndex", tc.name, storage.OrDefault(eng).Name(), err)
			}
		}
	}
}
