package core

import (
	"context"
	"encoding/hex"
	mrand "math/rand"
	"os"
	"path/filepath"
	"testing"

	"rsse/internal/cover"
	"rsse/internal/prf"
	"rsse/internal/sse"
)

// TestResponseFramesUnchanged pins, byte for byte, the search response
// frame a server sends for each shape a server sends: packed ids, raw
// 64-bit ids, SRC-i's 40-byte pairs, no groups, only empty groups, and a
// Constant answer over many leaves. The frames were recorded from the
// encoder that held a response as one byte slice per item; the flat
// response must put the same bytes on the wire. The packed and raw id
// indexes are seeded Logarithmic builds from before posting lists became
// runs of the value-sorted tuples, committed under testdata/frames with
// the trapdoor their owner sent, so the frames pin the codec and not the
// build's list order. The SRC-i frame comes from the committed suite-3
// golden, whose pairs are sealed under random IVs. The others are seeded
// builds; a Constant leaf's list is in input order under either build,
// so its row also pins that Constant's SSE bytes do not move.
func TestResponseFramesUnchanged(t *testing.T) {
	// built is a seeded client's index of kind over tuples, searched
	// with trap, or with the client's first-round trapdoor of q.
	built := func(kind Kind, tuples []Tuple, q Range, trap *Trapdoor) func(*testing.T) (*Index, *Trapdoor) {
		return func(t *testing.T) (*Index, *Trapdoor) {
			t.Helper()
			c, err := NewClient(kind, cover.Domain{Bits: 8}, testOptions(51))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := c.BuildIndex(tuples)
			if err != nil {
				t.Fatal(err)
			}
			if trap == nil {
				if trap, err = c.Trapdoor(q); err != nil {
					t.Fatal(err)
				}
			}
			return idx, trap
		}
	}
	golden := func(kind Kind, q Range) func(*testing.T) (*Index, *Trapdoor) {
		return func(t *testing.T) (*Index, *Trapdoor) {
			t.Helper()
			blob, err := os.ReadFile(goldenSuitePath(kind, prf.SuiteBlockPad))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := UnmarshalIndex(blob)
			if err != nil {
				t.Fatal(err)
			}
			trap, err := goldenClient(t, kind).Trapdoor(q)
			if err != nil {
				t.Fatal(err)
			}
			return idx, trap
		}
	}
	// committed is the index and the first-round trapdoor of name, a
	// seeded build of a client on testOptions(51) over an 8-bit domain.
	committed := func(name string) func(*testing.T) (*Index, *Trapdoor) {
		return func(t *testing.T) (*Index, *Trapdoor) {
			t.Helper()
			blob, err := os.ReadFile(filepath.Join("testdata", "frames", name+".idx"))
			if err != nil {
				t.Fatal(err)
			}
			idx, err := UnmarshalIndex(blob)
			if err != nil {
				t.Fatal(err)
			}
			wire, err := os.ReadFile(filepath.Join("testdata", "frames", name+".trap"))
			if err != nil {
				t.Fatal(err)
			}
			trap, err := UnmarshalTrapdoor(wire)
			if err != nil {
				t.Fatal(err)
			}
			return idx, trap
		}
	}
	rnd := mrand.New(mrand.NewSource(51))
	var unknown [5]sse.Stag
	for i := range unknown {
		rnd.Read(unknown[i][:])
	}
	for _, tc := range []struct {
		name   string
		search func(*testing.T) (*Index, *Trapdoor)
		items  int
		want   string
	}{
		{"sequential ids", committed("sequential-ids"), 28,
			"09081c000d2c0e080e33180000030c1b585550494c052317321f3c0113000f10100713123214034c"},
		{"random 64-bit ids", committed("random-ids"), 18,
			"060812000c2a843130f60a7b48a6d20cefb609cb634054f69a1fb7760a0f0d4dc1435d115786b6d7edf554607bfc067ef36e5ed3c800000c06e3590af1cf0c482b0784f77d3013c5734daeb2946303e09037dab8c818b4912acbd7c01474b7c6dd39764492a11b750cb60891aeec20d67da49e3efbd795d0c2cae54827c6e877ce7ceba2767dc60c0e330278f747320bbeb7b25df174b0c234"},
		{"SRC-i pairs", golden(LogarithmicSRCi, Range{Lo: 3, Hi: 12}), 7,
			"0128070eaf701a457db263029d07ee1b9037ca79cd1947e712d13035e10f0afbcceddf4285071940298bb3d3c35cfe62703768c939c63433b90b447db0bcbd69da4a1e05a0e1a6626684ab5fa7de08519b3f3c77b366d0a58e61e936fedcd0a9570bc6e6c243d1a3ef789579aa6c95d16eaac212f8b2f28547803654159df15c3297d0c4f8a47ef9688bb07d16207105f754f7c272a62e443cc8862d931fff5091575acaf246a3b95563622894637a20ed1cbd6859d8ca856b94557d3f9d7579039b3d74f0daa6652bab3ef0766c1b85997cb35686970bcb20b35a2bfa94958ed490063745429ef632363d4d0dec38cb3f4622a92023dc7e0561320e78a2e093e9e1458d11687fcd6d6a83c0ceecf9112aa642b5fe8aa4251763cf22"},
		{"no groups", built(LogarithmicURC, uniformTuples(8, 8, 53), Range{}, &Trapdoor{round: 1}), 0, "000000"},
		{"empty groups", built(LogarithmicURC, uniformTuples(8, 8, 53), Range{}, &Trapdoor{round: 1, Stags: unknown[:]}), 0, "0500000000000000"},
		{"Constant leaves", built(ConstantBRC, uniformTuples(40, 8, 54), Range{Lo: 33, Hi: 121}, nil), 10,
			"09080a0000054e01000000052e170b482b1c1d0b034a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx, trap := tc.search(t)
			resp, err := idx.SearchContext(context.Background(), trap)
			if err != nil {
				t.Fatal(err)
			}
			frame, err := resp.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(frame); got != tc.want || resp.Items() != tc.items {
				t.Errorf("frame of %d items, want %d:\n got %s\nwant %s", resp.Items(), tc.items, got, tc.want)
			}
		})
	}
}
