package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"log/slog"
	mrand "math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/race"
	"rsse/internal/sse"
	"rsse/internal/storage"
)

// perIDServer is a Source seen through the deprecated core.Server, a
// single fetch being a one-id fetch-many frame.
type perIDServer struct{ s core.Source }

func (p perIDServer) Meta() (core.IndexMeta, error) { return p.s.MetaContext(context.Background()) }

func (p perIDServer) Search(t *core.Trapdoor) (*core.Response, error) {
	return p.s.SearchContext(context.Background(), t)
}

func (p perIDServer) Fetch(id core.ID) ([]byte, bool, error) {
	cts, err := p.s.FetchMany(context.Background(), []core.ID{id})
	if err != nil {
		return nil, false, err
	}
	return cts[0], cts[0] != nil, nil
}

// hideFetchMany serves h through core.Server and core.FromServer's
// adapter: the owner's fetch round sends one one-id fetch-many frame per
// id — the reference the chunked round is compared to.
func hideFetchMany(h core.Source) core.Source { return core.FromServer(perIDServer{h}) }

// TestFetchManyOp: one fetch-many frame returns exactly the ciphertexts
// the served index holds, in id order, nil for unknown ids — and a
// single fetch over the handle agrees with it.
func TestFetchManyOp(t *testing.T) {
	_, idx, tuples := testClientIndex(t, core.LogarithmicSRC)
	h := pipeServer(t, idx).Default()
	ids := []core.ID{tuples[3].ID, 99999, tuples[0].ID, tuples[3].ID}
	got, err := h.FetchMany(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("%d ciphertexts for %d ids", len(got), len(ids))
	}
	wants, err := idx.FetchMany(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, ok := wants[i], wants[i] != nil
		if !ok && got[i] != nil {
			t.Fatalf("id %d: unknown id answered with %d bytes", id, len(got[i]))
		}
		if ok && !bytes.Equal(got[i], want) {
			t.Fatalf("id %d: fetch-many ciphertext differs from the index's", id)
		}
		one, found, err := h.FetchContext(context.Background(), id)
		if err != nil || found != ok || !bytes.Equal(one, want) {
			t.Fatalf("id %d: single fetch = %d bytes, %v, %v; want %d bytes, %v", id, len(one), found, err, len(want), ok)
		}
	}
	if got, err := h.FetchMany(context.Background(), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty fetch-many = %v, %v", got, err)
	}
	if _, err := h.FetchMany(context.Background(), make([]core.ID, maxFetchMany+1)); err == nil {
		t.Fatal("handle sent a fetch-many beyond the server's cap")
	}
}

// TestFetchManyServerRejects: the server refuses a count beyond its cap
// or one that disagrees with the payload length — with an error
// response, leaving the connection up.
func TestFetchManyServerRejects(t *testing.T) {
	_, idx, _ := testClientIndex(t, core.LogarithmicSRC)
	conn := pipeServer(t, idx)
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// spread is n raw ids too far apart to pack.
	spread := func(n int) []byte {
		var b []byte
		for i := range n {
			b = binary.BigEndian.AppendUint64(b, uint64(i)<<62|1<<61)
		}
		return b
	}
	for name, payload := range map[string][]byte{
		"empty":             nil,
		"short count":       {0, 0, 1},
		"over cap":          append(u32(maxFetchMany+1), make([]byte, 8*(maxFetchMany+1))...),
		"count overstates":  append(u32(3), make([]byte, 16)...),
		"count understates": append(u32(1), make([]byte, 16)...),
		"huge count":        u32(0xFFFFFFFF),
		"ragged ids":        append(u32(1), make([]byte, 7)...),
		// The same refusals in the id-group layout the owner sends, and
		// its own: each id group has one encoding.
		"group over cap":         append(uv(uint64(maxFetchMany+1)<<1), make([]byte, 8*(maxFetchMany+1))...),
		"group overstates":       append(uv(3<<1), spread(2)...),
		"group understates":      append(uv(1<<1), spread(2)...),
		"packed overstates":      append(uv(3<<1|1), 2, 2),
		"huge group count":       uv(1<<63 | 1),
		"varint past 64 bits":    bytes.Repeat([]byte{0xff}, 10),
		"non-minimal varint":     {0x82, 0x00, 2},
		"raw ids that pack":      append(uv(2<<1), make([]byte, 16)...),
		"packed ids that do not": append(uv(1<<1|1), uv(1<<63)...),
		"packed empty group":     uv(1),
	} {
		_, err := conn.roundTrip(opFetchMany, DefaultIndex, payload)
		if err == nil || errors.Is(err, ErrConnDead) {
			t.Errorf("%s: err = %v, want a server error response", name, err)
		}
	}
	if _, err := conn.Default().MetaContext(context.Background()); err != nil {
		t.Fatalf("connection did not survive rejected frames: %v", err)
	}
}

// TestFetchManyResponseParser: the client trusts nothing in a response —
// the count must equal the request's and every length must be backed by
// bytes actually present.
func TestFetchManyResponseParser(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	ok := cat(u32(2), u32(3), []byte("abc"), u32(0))
	got, err := parseFetchManyResponse(ok, 2)
	if err != nil || string(got[0]) != "abc" || got[1] != nil {
		t.Fatalf("valid response = %q, %v", got, err)
	}
	for name, tc := range map[string]struct {
		payload []byte
		want    int
	}{
		"empty":              {nil, 0},
		"count mismatch":     {ok, 3},
		"fewer than asked":   {cat(u32(1), u32(0)), 2},
		"count without body": {u32(1 << 30), 1 << 30},
		"length overruns":    {cat(u32(1), u32(9), []byte("abc")), 1},
		"huge length":        {cat(u32(1), u32(0xFFFFFFFF)), 1},
		"missing entry":      {cat(u32(2), u32(0), []byte{0, 0}), 2},
		"trailing bytes":     {cat(u32(1), u32(1), []byte("ab")), 1},
	} {
		if got, err := parseFetchManyResponse(tc.payload, tc.want); err == nil {
			t.Errorf("%s: accepted as %q", name, got)
		}
	}
}

// stubStore is a core.Source holding a few ciphertexts, for driving the
// fetch-many handler without an index.
type stubStore map[core.ID][]byte

func (s stubStore) MetaContext(context.Context) (core.IndexMeta, error) { return core.IndexMeta{}, nil }

func (s stubStore) SearchContext(context.Context, *core.Trapdoor) (*core.Response, error) {
	return &core.Response{}, nil
}

func (s stubStore) FetchMany(_ context.Context, ids []core.ID) ([][]byte, error) {
	out := make([][]byte, len(ids))
	for i, id := range ids {
		out[i] = s[id]
	}
	return out, nil
}

// FuzzFetchManyFrames throws arbitrary bytes at both fetch-many parsers.
// Neither may panic or over-allocate; whatever the request parser accepts
// the handler must answer with a frame the response parser accepts back.
func FuzzFetchManyFrames(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add(appendFetchManyRequest(nil, []core.ID{1, 2, 3}), uint16(3))
	f.Add(binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF), uint16(0xFFFF))
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 0, 0}, uint16(2))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 9, 'a'}, uint16(1))
	store := stubStore{1: []byte("one"), 2: bytes.Repeat([]byte{2}, 48)}
	ob := newIndexObs("fuzz-fetch-many")
	f.Fuzz(func(t *testing.T, data []byte, want uint16) {
		if cts, err := parseFetchManyResponse(data, int(want)); err == nil {
			if len(cts) != int(want) {
				t.Fatalf("parsed %d ciphertexts, asked for %d", len(cts), want)
			}
			total := 0
			for _, ct := range cts {
				total += len(ct)
			}
			if total > len(data) {
				t.Fatalf("ciphertexts total %d bytes out of a %d-byte frame", total, len(data))
			}
		}
		ids, err := parseFetchManyRequest(data)
		if err != nil {
			return
		}
		if len(ids) > maxFetchMany || !bytes.Equal(appendFetchManyRequest(nil, ids), data) || fetchManyCount(data) != len(ids) {
			t.Fatalf("request parser accepted %d ids out of %d bytes that are not their encoding", len(ids), len(data))
		}
		resp, err := handleFetchMany(store, ob, data, nil)
		if err != nil {
			t.Fatal(err)
		}
		cts, err := parseFetchManyResponse(resp, len(ids))
		if err != nil {
			t.Fatalf("handler output rejected: %v", err)
		}
		for i, ct := range cts {
			if !bytes.Equal(ct, store[ids[i]]) {
				t.Fatalf("entry %d round-tripped wrong", i)
			}
		}
	})
}

// srcSchemes are the schemes whose queries run the false-positive filter.
var srcSchemes = []core.Kind{core.LogarithmicSRC, core.LogarithmicSRCi}

var srcQueries = []core.Range{{Lo: 0, Hi: 1023}, {Lo: 100, Hi: 600}, {Lo: 777, Hi: 777}, {Lo: 1000, Hi: 1023}}

func sameBatch(a, b *core.BatchResult) bool {
	if len(a.Results) != len(b.Results) || a.Stats.FetchedTuples != b.Stats.FetchedTuples {
		return false
	}
	for i := range a.Results {
		if !sameResult(a.Results[i], b.Results[i]) {
			return false
		}
	}
	return true
}

// TestFetchManyDifferential: over a plain and over a resilient handle,
// Query and QueryBatch through the fetch-many op must return exactly
// what the per-id fallback returns (identically seeded clients, so both
// sides draw the same permutations).
func TestFetchManyDifferential(t *testing.T) {
	for _, kind := range srcSchemes {
		t.Run(kind.String(), func(t *testing.T) {
			a, idx, _ := testClientIndex(t, kind)
			b, _, _ := testClientIndex(t, kind)
			pool := NewPoolFunc("pipe", pipeDial(t, idx, nil, nil))
			defer pool.Close()
			for name, h := range map[string]core.Source{
				"remote":    pipeServer(t, idx).Default(),
				"resilient": NewRedialer(pool, "a", RetryPolicy{}).Default(),
			} {
				for _, q := range srcQueries {
					got, err := a.QueryContext(context.Background(), h, q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := b.QueryContext(context.Background(), hideFetchMany(h), q)
					if err != nil {
						t.Fatal(err)
					}
					if !sameResult(got, want) {
						t.Fatalf("%s %v: fetch-many query diverged from per-id fallback", name, q)
					}
				}
				got, err := a.QueryBatchContext(context.Background(), h, srcQueries)
				if err != nil {
					t.Fatal(err)
				}
				want, err := b.QueryBatchContext(context.Background(), hideFetchMany(h), srcQueries)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBatch(got, want) {
					t.Fatalf("%s: fetch-many batch diverged from per-id fallback", name)
				}
			}
		})
	}
}

// TestFetchManyFrameCount: a remote SRC-i query with R raw ids costs at
// most 2 search frames plus ⌈R/chunk⌉ fetch-many frames and no frame of
// any other op, while the per-index fetch and raw-id leakage counters
// still advance by exactly R — what R single fetches would have counted.
func TestFetchManyFrameCount(t *testing.T) {
	c, idx, _ := testClientIndex(t, core.LogarithmicSRCi)
	reg := NewRegistry()
	const name = "frame-count"
	if err := reg.Register(name, idx); err != nil {
		t.Fatal(err)
	}
	h := pipeRegistry(t, reg).Index(name)
	if _, err := h.MetaContext(context.Background()); err != nil { // keep the meta frame out of the count
		t.Fatal(err)
	}
	fetches, rawIDs := ixFetches.With(name), ixRawIDs.With(name)
	for _, q := range srcQueries {
		before := requestCounts()
		fetches0, raw0 := fetches.Value(), rawIDs.Value()
		res, err := c.QueryContext(context.Background(), h, q)
		if err != nil {
			t.Fatal(err)
		}
		r := uint64(len(res.Raw))
		frames := requestsSince(before)
		if got := frames[opSearch]; got > 2 {
			t.Errorf("%v: %d search frames, want at most 2", q, got)
		}
		if got, want := frames[opFetchMany], (r+core.FetchChunk-1)/core.FetchChunk; got != want {
			t.Errorf("%v: %d fetch-many frames for %d raw ids, want %d", q, got, r, want)
		}
		frames[opSearch], frames[opFetchMany] = 0, 0
		if frames != [len(opLabel)]uint64{} {
			t.Errorf("%v: frames of other ops crossed: %v", q, frames)
		}
		if got := fetches.Value() - fetches0; got != r {
			t.Errorf("%v: rsse_index_fetches_total advanced by %d, client fetched %d ids", q, got, r)
		}
		if got := rawIDs.Value() - raw0; got != r {
			t.Errorf("%v: rawid-fetch leakage advanced by %d, client fetched %d ids", q, got, r)
		}
	}
}

// slowStore delays every fetch, so a fetch-many request crosses any
// slow-query threshold.
type slowStore struct{ stubStore }

func (s slowStore) FetchMany(ctx context.Context, ids []core.ID) ([][]byte, error) {
	time.Sleep(2 * time.Millisecond * time.Duration(len(ids)))
	return s.stubStore.FetchMany(ctx, ids)
}

// TestFetchManySlowQueryLine: the slow-query record of a fetch-many
// request names the op and carries the id count.
func TestFetchManySlowQueryLine(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	serverEnd, clientEnd := net.Pipe()
	defer serverEnd.Close()
	go func() {
		_ = serveLoop(singleRegistry(slowStore{stubStore{1: []byte("ct")}}), serverEnd, nil, log, time.Millisecond)
	}()
	conn := NewConn(clientEnd)
	defer conn.Close()
	if _, err := conn.Default().FetchMany(context.Background(), []core.ID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	line := buf.String()
	mu.Unlock()
	for _, want := range []string{"slow query", "op=fetch_many", "ids=3"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line %q lacks %q", line, want)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// parkedStore answers searches from a real index but parks every fetch
// until released — a server stuck in the middle of the fetch round.
type parkedStore struct {
	*core.Index
	started chan struct{}
	release chan struct{}
}

func (s *parkedStore) FetchMany(ctx context.Context, ids []core.ID) ([][]byte, error) {
	select {
	case s.started <- struct{}{}:
	default:
	}
	<-s.release
	return s.Index.FetchMany(ctx, ids)
}

// TestFilterCancellation: a context cancelled while the fetch round is
// in flight returns ctx's error promptly, and the abandoned fetch-many
// response does not poison the connection.
func TestFilterCancellation(t *testing.T) {
	c, idx, tuples := testClientIndex(t, core.LogarithmicSRCi)
	parked := &parkedStore{Index: idx, started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := NewRegistry()
	if err := reg.Register("parked", parked); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("fast", idx); err != nil {
		t.Fatal(err)
	}
	conn := pipeRegistry(t, reg)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-parked.started // both search rounds are done, the filter is waiting
		cancel()
	}()
	q := core.Range{Lo: 0, Hi: 1023}
	start := time.Now()
	_, err := c.QueryContext(ctx, conn.Index("parked"), q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled filter returned %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancelled filter took %v to return", waited)
	}
	close(parked.release)
	res, err := c.QueryContext(context.Background(), conn.Index("fast"), q)
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	if want := exact(tuples, q); len(res.Matches) != len(want) {
		t.Fatalf("query after cancellation: %d matches, want %d", len(res.Matches), len(want))
	}
}

// remoteFilterSetup serves a 10k-tuple SRC-i index over loopback TCP and
// returns an owner plus ranges that each return ≈120 raw ids — the shape
// of the benchmark's srci_filter workload (and of the root package's
// BenchmarkRemoteFilter).
func remoteFilterSetup(tb testing.TB) (*core.Client, *IndexHandle, []core.Range) {
	tb.Helper()
	const bits, n = 16, 10000
	rnd := mrand.New(mrand.NewSource(42))
	tuples := make([]core.Tuple, n)
	for i := range tuples {
		tuples[i] = core.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % (1 << bits), Payload: []byte("payload-of-a-row")}
	}
	c, err := core.NewClient(core.LogarithmicSRCi, cover.Domain{Bits: bits}, core.Options{
		SSE:       sse.TSet{BucketCapacity: 512, Expansion: 1.4},
		Rand:      mrand.New(mrand.NewSource(7)),
		MasterKey: bytes.Repeat([]byte{7}, 32),
	})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		tb.Fatal(err)
	}
	// 0.6% of the domain holds ≈60 tuples; the single-node SRC cover
	// roughly doubles that with false positives.
	const width = (1 << bits) * 6 / 1000
	ranges := make([]core.Range, 64)
	for i := range ranges {
		lo := uint64(i)*((1<<bits)/64) + 17
		ranges[i] = core.Range{Lo: lo, Hi: lo + width - 1}
	}
	return c, serveLoopback(tb, idx), ranges
}

// serveLoopback serves idx over loopback TCP and returns a handle on it.
func serveLoopback(tb testing.TB, idx *core.Index) *IndexHandle {
	tb.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = Serve(l, idx) }()
	conn, err := Dial("tcp", l.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close(); l.Close() })
	return conn.Default()
}

// remoteBatchSetup serves a 10k-tuple Logarithmic-URC index on the sorted
// engine over loopback TCP and returns an owner plus sixteen-range
// batches of widths 64-511 inside a 2,048-value window: the shape of one
// shard of the benchmark's batch_cluster workload.
func remoteBatchSetup(tb testing.TB) (*core.Client, *IndexHandle, [][]core.Range) {
	tb.Helper()
	const bits, n, window = 16, 10000, 2048
	rnd := mrand.New(mrand.NewSource(43))
	tuples := make([]core.Tuple, n)
	for i := range tuples {
		tuples[i] = core.Tuple{ID: uint64(i + 1), Value: rnd.Uint64() % (1 << bits)}
	}
	c, err := core.NewClient(core.LogarithmicURC, cover.Domain{Bits: bits}, core.Options{
		SSE:       sse.TSet{BucketCapacity: 512, Expansion: 1.4},
		Storage:   storage.Sorted{},
		Rand:      mrand.New(mrand.NewSource(8)),
		MasterKey: bytes.Repeat([]byte{8}, 32),
	})
	if err != nil {
		tb.Fatal(err)
	}
	idx, err := c.BuildIndex(tuples)
	if err != nil {
		tb.Fatal(err)
	}
	batches := make([][]core.Range, 16)
	for b := range batches {
		base := rnd.Uint64() % (1<<bits - window)
		batches[b] = make([]core.Range, 16)
		for i := range batches[b] {
			w := 64 + rnd.Uint64()%448
			lo := base + rnd.Uint64()%(window-w)
			batches[b][i] = core.Range{Lo: lo, Hi: lo + w - 1}
		}
	}
	return c, serveLoopback(tb, idx), batches
}

// TestQueryPathAllocs is the remote SRC-i pin beside core's
// TestQueryPathAllocs (which cannot import this package): owner and
// server together, per query of ≈120 raw ids over loopback. Measured 57
// objects since a search response is held flat, one byte array and one
// group-end array from the searcher to the demux; 59 with one byte slice
// per item, 62 before the response frame went compact, since the index
// pads its cells from F (PRF suite 3); 64 with
// AES cells, before and after the server searched a request's stags in
// one lockstep pass (487 while the owner copied every response item and
// each search grew its result by append); the per-id fetch fallback
// costs ≈1,500 on the same queries (a frame, a reply channel, a key
// schedule and a decrypt buffer per id). The guard sits about 10% above
// the count, so any new allocation per round trips it.
func TestQueryPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs the full 10k-tuple workload")
	}
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	c, h, ranges := remoteFilterSetup(t)
	i, raw := 0, 0
	got := testing.AllocsPerRun(64, func() {
		res, err := c.QueryContext(context.Background(), h, ranges[i%len(ranges)])
		if err != nil {
			t.Fatal(err)
		}
		raw += len(res.Raw)
		i++
	})
	t.Logf("SRC-i remote: %.0f allocs/query at %.0f raw ids/query", got, float64(raw)/float64(i))
	if got > 63 {
		t.Errorf("remote SRC-i query allocates %.0f objects/op, guard is 63 — per-id allocations are back?", got)
	}
}

// TestQueryBatchPathAllocs is the remote batch pin beside
// TestQueryPathAllocs: owner and server together, per sixteen-range
// Logarithmic-URC QueryBatch over loopback, ≈530 response items each.
// Measured 28 objects since a search response is held flat; 30 with one
// byte slice per item, since the index pads its cells from F (PRF suite
// 3), so a stag whose probe hits schedules no AES key; 129 with AES
// cells, since the owner plans the covers into one array, deduplicates
// them by sorting, and demultiplexes a round into one id array and one
// group-size array; 303 while the plan deduplicated
// through a map and every range's cover, ids and groups were slices of
// their own; 498 with one result slice per stag on the server and one
// group slice per group on the owner (1,379 while the owner copied every
// response item and each search grew its result by append). The guard
// sits about 10% above the count, so a per-range or per-group allocation
// on either side trips it.
func TestQueryBatchPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard needs the full 10k-tuple workload")
	}
	if race.Enabled {
		t.Skip("race detector perturbs sync.Pool; alloc counts are nondeterministic")
	}
	c, h, batches := remoteBatchSetup(t)
	i, items := 0, 0
	got := testing.AllocsPerRun(64, func() {
		br, err := c.QueryBatchContext(context.Background(), h, batches[i%len(batches)])
		if err != nil {
			t.Fatal(err)
		}
		items += br.Stats.ResponseItems
		i++
	})
	t.Logf("URC remote batch: %.0f allocs/batch at %.0f response items/batch", got, float64(items)/float64(i))
	if got > 31 {
		t.Errorf("remote URC batch allocates %.0f objects/op, guard is 31 — per-range, per-group or per-hit allocations are back?", got)
	}
}
