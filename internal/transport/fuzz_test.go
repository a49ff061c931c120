package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/dprf"
)

// FuzzServeFrames feeds arbitrary bytes to serveLoop as one
// connection's inbound stream, over a real Constant-BRC index (so GGM
// tokens are expanded, not just parsed) and a writable namespace, and
// executes whatever parses. The stream either ends cleanly or dies on a
// framing error; in both cases every request frame the read loop
// accepted is answered by exactly one response frame carrying its id,
// every frame written is well-formed, no handler panics (the
// containment counter stays put) and nothing hangs.
func FuzzServeFrames(f *testing.F) {
	c, idx, _ := testClientIndex(f, core.ConstantBRC)
	td := func(lo, hi uint64) *core.Trapdoor {
		t, err := c.Trapdoor(core.Range{Lo: lo, Hi: hi})
		if err != nil {
			f.Fatal(err)
		}
		return t
	}
	one, err := td(100, 300).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	// A one-trapdoor batch as the retired ops 5 and 9 framed it:
	// count‖len‖trapdoor.
	batch := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1), uint32(len(one)))
	batch = append(batch, one...)
	// PR 14's process killer: a GGM token one level byte past any domain.
	level64, err := (&core.Trapdoor{GGM: []dprf.Token{{Level: 64}}}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		requestFrame(1, opSearch, DefaultIndex, one),
		// The retired batch-query, batch-stream and per-id fetch ops:
		// one err frame each.
		requestFrame(2, 5, DefaultIndex, batch),
		requestFrame(3, 9, DefaultIndex, batch),
		requestFrame(4, 3, DefaultIndex, binary.BigEndian.AppendUint64(nil, 7)),
		requestFrame(5, opFetchMany, DefaultIndex, appendFetchManyRequest(nil, []core.ID{1, 2, 999})),
		requestFrame(6, opMeta, DefaultIndex, nil),
		requestFrame(7, opUpdate, "dyn", marshalUpdate(Update{Kind: UpdateInsert, ID: 1, Value: 10, Payload: []byte("p")})),
		requestFrame(8, opDynQuery, "dyn", binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 0), 1023)),
		requestFrame(9, opDynFlush, "dyn", nil),
		requestFrame(10, opNames, "", nil),
		requestFrame(11, opSearch, DefaultIndex, level64),
		requestFrame(12, 77, "no-such-index", []byte("junk")),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	all := bytes.Join(seeds, nil)
	f.Add(all)              // a pipelined connection
	f.Add(all[:len(all)-3]) // ... torn mid-frame
	f.Add([]byte{0, 0, 0, 2, 0, 0})
	f.Add(append(all, 0x0F, 0xFF, 0xFF, 0xFF, 1, 2, 3)) // ... then a header announcing 256 MiB − 1 and three bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		// What the read loop will accept: frames up to the first one that
		// is torn or too short to carry a request header.
		var want []uint32
		for rest := data; len(rest) >= 4; {
			n := int(binary.BigEndian.Uint32(rest))
			if n > len(rest)-4 {
				break
			}
			req, err := parseRequest(rest[4 : 4+n])
			if err != nil {
				break
			}
			want = append(want, req.id)
			rest = rest[4+n:]
		}

		reg := singleRegistry(idx)
		if err := reg.RegisterUpdatable("dyn", newMemStore()); err != nil {
			t.Fatal(err)
		}
		panics := tm.panics.Value()
		var out bytes.Buffer
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = serveLoop(reg, struct {
				io.Reader
				io.Writer
			}{bytes.NewReader(data), &out}, nil, nil, 0)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("serveLoop still running after 20s")
		}
		if got := tm.panics.Value() - panics; got != 0 {
			t.Fatalf("%d handler panics", got)
		}

		var got []uint32
		for r := bytes.NewReader(out.Bytes()); r.Len() > 0; {
			body, err := readFrame(r)
			if err != nil {
				t.Fatalf("response stream is not whole frames: %v", err)
			}
			if len(body) < responseHeader {
				t.Fatalf("response frame of %d bytes", len(body))
			}
			switch body[4] {
			case statusOK, statusErr:
				got = append(got, binary.BigEndian.Uint32(body))
			default: // no Server, so nothing is shed: overload cannot occur
				t.Fatalf("response status %d", body[4])
			}
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("terminal responses for ids %v, accepted requests %v", got, want)
		}
	})
}
