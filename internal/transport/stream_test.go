package transport

import (
	"errors"
	"net"
	"strings"
	"testing"

	"rsse/internal/core"
)

// streamTrapdoors builds enough trapdoors to span several stream
// chunks (and to trip SearchBatchContext's automatic switch).
func streamTrapdoors(t *testing.T, client *core.Client, n int) []*core.Trapdoor {
	t.Helper()
	ts := make([]*core.Trapdoor, 0, n)
	for i := 0; i < n; i++ {
		lo := uint64(i * 7 % 900)
		tr, err := client.Trapdoor(core.Range{Lo: lo, Hi: lo + uint64(i%40)})
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tr)
	}
	return ts
}

// TestBatchStreamOp: the streamed op returns exactly the single-frame
// batch op's responses, in trapdoor order, across chunk boundaries and
// for ragged final chunks.
func TestBatchStreamOp(t *testing.T) {
	t.Run("pooled", func(t *testing.T) {
		client, index := batchTestIndex(t, 241)
		reg := singleRegistry(index)
		cliConn, srvConn := net.Pipe()
		go func() { _ = serveLoop(reg, srvConn, nil, nil, 0) }()
		conn := NewConn(cliConn)
		defer conn.Close()
		h := conn.Default()

		// Sizes around the chunking edges: empty, sub-chunk, exact
		// multiples, ragged tails.
		for _, n := range []int{0, 1, streamChunkTokens, streamChunkTokens + 1, 3*streamChunkTokens - 1} {
			ts := streamTrapdoors(t, client, n)
			streamed, err := h.SearchBatchStream(ts)
			if err != nil {
				t.Fatalf("n=%d: stream: %v", n, err)
			}
			plain, err := h.SearchBatch(ts)
			if err != nil {
				t.Fatalf("n=%d: batch: %v", n, err)
			}
			if len(streamed) != n || len(plain) != n {
				t.Fatalf("n=%d: got %d streamed, %d plain", n, len(streamed), len(plain))
			}
			for i := range ts {
				if streamed[i].Items() != plain[i].Items() || len(streamed[i].Groups) != len(plain[i].Groups) {
					t.Fatalf("n=%d trapdoor %d: streamed %d items/%d groups, plain %d/%d",
						n, i, streamed[i].Items(), len(streamed[i].Groups),
						plain[i].Items(), len(plain[i].Groups))
				}
			}
		}
	})
}

// TestBatchStreamAutoSwitch: SearchBatch crosses to the streamed op at
// the threshold and the result is indistinguishable to the caller.
func TestBatchStreamAutoSwitch(t *testing.T) {
	client, index := batchTestIndex(t, 251)
	cliConn, srvConn := net.Pipe()
	go func() { _ = ServeConn(srvConn, index) }()
	conn := NewConn(cliConn)
	defer conn.Close()
	h := conn.Default()

	ts := streamTrapdoors(t, client, streamBatchThreshold+5)
	rs, err := h.SearchBatch(ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ts) {
		t.Fatalf("%d responses for %d trapdoors", len(rs), len(ts))
	}
	for i, tr := range ts {
		single, err := h.Search(tr)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i].Items() != single.Items() {
			t.Fatalf("trapdoor %d: %d items batched, %d single", i, rs[i].Items(), single.Items())
		}
	}
}

// TestBatchStreamError: a failure mid-stream surfaces as an error, and
// the connection stays usable afterwards.
func TestBatchStreamError(t *testing.T) {
	client, index := batchTestIndex(t, 257)
	cliConn, srvConn := net.Pipe()
	go func() { _ = ServeConn(srvConn, index) }()
	conn := NewConn(cliConn)
	defer conn.Close()

	// An unknown index name fails before the first chunk.
	ts := streamTrapdoors(t, client, streamChunkTokens+3)
	_, err := conn.Index("no-such-index").SearchBatchStream(ts)
	if err == nil || !strings.Contains(err.Error(), "no-such-index") {
		t.Fatalf("stream against unknown index returned %v", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("lookup failure misreported as overload: %v", err)
	}
	// The connection survives for a normal streamed batch.
	rs, err := conn.Default().SearchBatchStream(ts)
	if err != nil {
		t.Fatalf("stream after error: %v", err)
	}
	if len(rs) != len(ts) {
		t.Fatalf("%d responses for %d trapdoors", len(rs), len(ts))
	}
}
