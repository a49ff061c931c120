package rsse_test

// TestConformance is the package's one answer check. Every deployment
// shape — a local index, a loaded copy, served, dialed and per-id-fetch
// remotes, built and dialed clusters, the cached client over a local and
// a remote index, and the in-memory, durable, sharded and gateway-served
// dynamic stores — answers one seeded plaintext model, on every scheme
// kind, SSE construction and storage engine, plain, batched, from many
// goroutines and under injected faults, and refuses the ranges no shape
// may answer. A cell is
// TestConformance/<kind>/<construction>-<engine>/<shape>/<modifier>:
//
//	go test -run 'TestConformance/Logarithmic-SRC-i/tset-disk/remote-tcp' .

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	mrand "math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rsse"
	"rsse/internal/core"
	"rsse/internal/fault"
	"rsse/internal/storage"
)

// pair is a (construction, engine) pair; pairs[0], basic-map, is the
// baseline every shape runs. "map" is the deprecated alias of the
// sorted engine: its cells build and load through the alias, and their
// indexes report "sorted".
type pair struct{ sse, engine string }

func (p pair) String() string { return p.sse + "-" + p.engine }

var (
	constructions = map[string]rsse.Option{"basic": rsse.WithSSE("basic"), "packed": rsse.WithPackedBlockSize(4),
		"tset": rsse.WithTSetParams(64, 1.5), "2lev": rsse.WithSSE("2lev")}
	pairs = func() (out []pair) {
		for _, s := range []string{"basic", "packed", "tset", "2lev"} {
			for _, e := range []string{"map", "sorted", "disk"} {
				out = append(out, pair{s, e})
			}
		}
		return out
	}()
)

// shape is one deployment; run answers f's model through the shape
// named name under mod. A full shape runs plain and batch cells on every
// pair; every other cell runs on the baseline and on the pairs rotated
// onto its kind.
type shape struct {
	name string
	full bool
	mods []string
	run  func(t *testing.T, f *fixture, name, mod string)
}

var shapes = []shape{
	{"local", true, []string{"plain", "batch", "concurrent"}, runLocal},
	{"loaded", true, []string{"plain", "batch"}, runLocal},
	{"remote-pipe", true, []string{"plain", "batch", "concurrent"}, runRemote},
	{"remote-tcp", false, []string{"plain", "batch", "concurrent", "faulted"}, runRemote},
	{"remote-per-id", false, []string{"plain", "batch"}, runRemote},
	{"cluster-built", false, []string{"plain", "batch", "concurrent"}, runCluster},
	{"cluster-dialed", false, []string{"plain", "batch", "concurrent", "faulted"}, runCluster},
	{"cached", false, []string{"plain", "batch", "remote"}, runCached},
	{"dynamic", false, []string{"plain", "batch"}, runStore},
	{"dynamic-durable", false, []string{"plain", "batch"}, runStore},
	{"sharded-dynamic", false, []string{"plain", "batch"}, runStore},
	{"remote-dynamic", false, []string{"plain"}, runStore},
}

// runs reports whether s's cell on pair pi runs mod: faults are
// injected, and the cache put in front of a remote index, on the
// baseline only; off the baseline, a full shape runs
// only plain and batch cells, and a dynamic store only batch ones — its
// batch cell asks every range singly as well.
func (s shape) runs(mod string, pi int, sel bool) bool {
	switch {
	case mod == "faulted" || mod == "remote":
		return pi == 0
	case s.full && !sel:
		return mod == "plain" || mod == "batch"
	case mod == "plain" && slices.Contains(s.mods, "batch") && strings.Contains(s.name, "dynamic"):
		return pi == 0
	}
	return true
}

// eligible: 2lev packs 8-byte postings, and SRC-i's auxiliary index
// stores pairs.
func eligible(kind rsse.Kind, p pair) bool { return kind != rsse.LogarithmicSRCi || p.sse != "2lev" }

// rotated reports whether shape si runs pair pi on the ki-th kind:
// every kind runs the baseline, and each other pair runs on one kind,
// shifted per shape — on a Constant kind for the cached shape, and off
// SRC-i for 2lev.
func rotated(ki, si, pi int, name string) bool {
	owner := (pi + si) % len(rsse.Kinds())
	switch {
	case name == "cached":
		owner = 1 + pi%2 // rsse.Kinds()[1:3] are the Constant kinds
	case !eligible(rsse.Kinds()[owner], pairs[pi]):
		owner = (owner + 1) % len(rsse.Kinds())
	}
	return pi == 0 || owner == ki
}

func TestConformance(t *testing.T) {
	for si, s := range shapes {
		seen := map[int]bool{}
		for ki, kind := range rsse.Kinds() {
			for pi, p := range pairs {
				if eligible(kind, p) && (s.full || rotated(ki, si, pi, s.name)) {
					seen[pi] = true
				}
			}
		}
		if len(seen) != len(pairs) {
			t.Fatalf("%s runs %d of the %d (construction, engine) pairs", s.name, len(seen), len(pairs))
		}
	}
	for ki, kind := range rsse.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for pi, p := range pairs {
				if !eligible(kind, p) {
					continue
				}
				t.Run(p.String(), func(t *testing.T) {
					f := newFixture(t, kind, pi)
					for si, s := range shapes {
						if sel := rotated(ki, si, pi, s.name); s.full || sel {
							t.Run(s.name, func(t *testing.T) {
								for _, mod := range s.mods {
									if s.runs(mod, pi, sel) {
										t.Run(mod, func(t *testing.T) { s.run(t, f, s.name, mod) })
									}
								}
							})
						}
					}
				})
			}
		})
	}
}

// must fails the test on a non-nil error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// fixture is one (kind, construction, engine): the data, its model, the
// range set, the index built from them, and a copy of that index loaded
// from its bytes — onto the engine, or memory-mapped from a file for
// disk.
type fixture struct {
	kind          rsse.Kind
	bits          uint8
	pi            int
	data          []rsse.Tuple
	model         *model
	ranges        []rsse.Range
	key           rsse.Option
	built, loaded *rsse.Index
}

func newFixture(t *testing.T, kind rsse.Kind, pi int) *fixture {
	p := pairs[pi]
	bits, n := uint8(10), 300
	if kind == rsse.Quadratic {
		bits, n = 4, 100 // the naive baseline's keyword space is O(m^2)
	}
	f := &fixture{kind: kind, bits: bits, pi: pi, data: genTuples(n, bits, int64(kind)+1),
		ranges: genRanges(bits, 16, int64(kind)+100), key: rsse.WithMasterKey(bytes.Repeat([]byte{byte(kind) + 1}, 32))}
	f.model = newModel(f.data)
	opts := append(f.opts("", false), f.key, rsse.WithSeed(1))
	if kind == rsse.Quadratic && pi == 0 {
		opts = append(opts, rsse.WithQuadraticPadding())
	}
	builder, err := rsse.NewClient(kind, bits, opts...)
	must(t, err)
	f.built, err = builder.BuildIndex(f.data)
	must(t, err)
	if f.built.Kind() != kind || f.built.N() != n {
		t.Fatalf("built index reports %v with %d tuples, want %v with %d", f.built.Kind(), f.built.N(), kind, n)
	}
	blob, err := f.built.MarshalBinary()
	must(t, err)
	if p.engine == "disk" {
		path := filepath.Join(t.TempDir(), "x.idx")
		must(t, os.WriteFile(path, blob, 0o600))
		f.loaded, err = rsse.OpenIndexFile(path, p.engine)
	} else {
		f.loaded, err = rsse.UnmarshalIndexWith(blob, p.engine)
	}
	must(t, err)
	t.Cleanup(func() { f.loaded.Close() })
	want := p.engine
	if want == "map" {
		want = "sorted"
	}
	for _, x := range []*rsse.Index{f.built, f.loaded} {
		if got := x.Stats().Engine; got != want {
			t.Fatalf("%s index reports engine %q, want %q", p, got, want)
		}
	}
	return f
}

// opts are the options of f's owners, dynamic stores and cluster shard
// clients, less the master key: every owner is seeded identically, so
// two owners asked the same sequence draw the same token permutations;
// the concurrent modifier turns the trapdoor memo on.
func (f *fixture) opts(mod string, allowIntersecting bool) []rsse.Option {
	p := pairs[f.pi]
	opts := []rsse.Option{constructions[p.sse], rsse.WithStorage(p.engine), rsse.WithSeed(7)}
	if allowIntersecting {
		opts = append(opts, rsse.AllowIntersectingQueries())
	}
	if mod == "concurrent" {
		opts = append(opts, rsse.WithTrapdoorMemo(16))
	}
	return opts
}

// owner is a fresh client for f's index; intersecting ranges are
// allowed unless it is guarded.
func (f *fixture) owner(t *testing.T, mod string, guarded bool, extra ...rsse.Option) *rsse.Client {
	t.Helper()
	c, err := rsse.NewClient(f.kind, f.bits, append(append(f.opts(mod, !guarded), f.key), extra...)...)
	must(t, err)
	return c
}

// genTuples is the one data generator: ids 1..n, uniform values, and a
// payload naming the id.
func genTuples(n int, bits uint8, seed int64) []rsse.Tuple {
	rnd := mrand.New(mrand.NewSource(seed))
	out := make([]rsse.Tuple, n)
	for i := range out {
		id := uint64(i + 1)
		out[i] = rsse.Tuple{ID: id, Value: rnd.Uint64() % (1 << bits), Payload: fmt.Appendf(nil, "p%d", id)}
	}
	return out
}

// genRanges is the one range generator: the full domain, then single
// points, windows across the middle of the domain (an equal-width
// cluster's middle shard boundary), narrow windows, and windows
// anywhere.
func genRanges(bits uint8, n int, seed int64) []rsse.Range {
	rnd := mrand.New(mrand.NewSource(seed))
	m := uint64(1) << bits
	out := []rsse.Range{{Lo: 0, Hi: m - 1}}
	for len(out) < n {
		lo := rnd.Uint64() % m
		switch len(out) % 4 {
		case 1:
			out = append(out, rsse.Range{Lo: lo, Hi: lo})
		case 2:
			out = append(out, rsse.Range{Lo: lo / 2, Hi: m/2 + lo/2})
		case 3:
			out = append(out, rsse.Range{Lo: lo, Hi: min(m-1, lo+rnd.Uint64()%(m/16))})
		default:
			out = append(out, rsse.Range{Lo: lo, Hi: lo + rnd.Uint64()%(m-lo)})
		}
	}
	return out
}

// model is the plaintext live set, snapshotted at each flush: a read
// sees flushed state only, and a static index is flushed once, at
// build.
type model struct {
	live map[rsse.ID]rsse.Tuple
	snap []rsse.Tuple // the live set at the last flush, by value then id
}

func newModel(data []rsse.Tuple) *model {
	m := &model{live: map[rsse.ID]rsse.Tuple{}}
	for _, t := range data {
		m.live[t.ID] = t
	}
	m.flush()
	return m
}

func (m *model) flush() {
	m.snap = slices.SortedFunc(maps.Values(m.live), func(a, b rsse.Tuple) int {
		return cmp.Or(cmp.Compare(a.Value, b.Value), cmp.Compare(a.ID, b.ID))
	})
}

// answer is the model's answer to q, by id.
func (m *model) answer(q rsse.Range) []rsse.Tuple {
	lo := sort.Search(len(m.snap), func(i int) bool { return m.snap[i].Value >= q.Lo })
	hi := sort.Search(len(m.snap), func(i int) bool { return m.snap[i].Value > q.Hi })
	return slices.SortedFunc(slices.Values(m.snap[lo:hi]), byID)
}

func byID(a, b rsse.Tuple) int { return cmp.Compare(a.ID, b.ID) }

// oracle is the plaintext answer to q over tuples, in ascending id order.
func oracle(tuples []rsse.Tuple, q rsse.Range) []rsse.ID { return idsOf(newModel(tuples).answer(q)) }

func idsOf(ts []rsse.Tuple) []rsse.ID {
	ids := make([]rsse.ID, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

func sorted(ids []rsse.ID) []rsse.ID { return slices.Sorted(slices.Values(ids)) }

func equal(a, b []rsse.ID) bool { return slices.Equal(a, b) }

// answer is one range's result as a shape reports it: ids, or tuples.
type answer struct {
	matches, raw []rsse.ID
	tuples       []rsse.Tuple
	stats        *rsse.QueryStats
	shards       int // shard sub-queries merged into stats; 0 off a cluster
}

func idAnswer(r *rsse.Result) answer { return answer{matches: r.Matches, raw: r.Raw, stats: &r.Stats} }

func idAnswers(rs []*rsse.Result) []answer {
	as := make([]answer, len(rs))
	for i, r := range rs {
		as[i] = idAnswer(r)
	}
	return as
}

func tupleAnswer(ts []rsse.Tuple) answer { return answer{matches: idsOf(ts), tuples: ts} }

// check is the one assertion: matches equal the model's, values and
// payloads included where a shape returns tuples; raw holds every
// match, and only matches on the kinds without false positives; and the
// stats agree with the result slices.
func (m *model) check(kind rsse.Kind, q rsse.Range, a answer) error {
	want := m.answer(q)
	got := sorted(a.matches)
	if !equal(got, idsOf(want)) {
		return fmt.Errorf("%v: matches %v, model %v", q, got, idsOf(want))
	}
	for i, tup := range slices.SortedFunc(slices.Values(a.tuples), byID) {
		if tup.Value != want[i].Value || !bytes.Equal(tup.Payload, want[i].Payload) {
			return fmt.Errorf("%v: tuple %+v, model %+v", q, tup, want[i])
		}
	}
	if a.tuples == nil {
		raw := sorted(a.raw)
		for _, id := range got {
			if _, ok := slices.BinarySearch(raw, id); !ok {
				return fmt.Errorf("%v: match %d not among the raw ids", q, id)
			}
		}
		if !kind.HasFalsePositives() && !equal(raw, got) {
			return fmt.Errorf("%v: %d raw ids for %d matches", q, len(raw), len(got))
		}
	}
	if s := a.stats; s != nil {
		groups := 0
		for _, g := range s.Groups {
			groups += g
		}
		switch {
		case s.Raw != len(a.raw) || s.Matches != len(a.matches) || s.FalsePositives != s.Raw-s.Matches:
			return fmt.Errorf("%v: stats %d raw, %d matches, %d false positives for %d raw ids and %d matches",
				q, s.Raw, s.Matches, s.FalsePositives, len(a.raw), len(a.matches))
		case s.Rounds > 0 && groups != s.Raw:
			return fmt.Errorf("%v: groups sum to %d, raw %d", q, groups, s.Raw)
		case s.Rounds > 0 && kind == rsse.Quadratic && s.Tokens != max(a.shards, 1):
			return fmt.Errorf("%v: Quadratic sent %d tokens over %d shards", q, s.Tokens, a.shards)
		}
	}
	return nil
}

// target is a deployment ready to answer; fetch is nil where a shape
// returns tuples.
type target struct {
	one   func(context.Context, rsse.Range) (answer, error)
	batch func(context.Context, []rsse.Range) ([]answer, *rsse.BatchStats, error)
	fetch func(context.Context, []rsse.ID) ([]rsse.Tuple, error)
}

func one(r *rsse.Result, err error) (answer, error) {
	if err != nil {
		return answer{}, err
	}
	return idAnswer(r), nil
}

func batch(br *rsse.BatchResult, err error) ([]answer, *rsse.BatchStats, error) {
	if err != nil {
		return nil, nil, err
	}
	return idAnswers(br.Results), &br.Stats, nil
}

func clientTarget(c *rsse.Client, x rsse.Source) target {
	return target{
		func(ctx context.Context, q rsse.Range) (answer, error) { return one(c.QueryContext(ctx, x, q)) },
		func(ctx context.Context, qs []rsse.Range) ([]answer, *rsse.BatchStats, error) {
			return batch(c.QueryBatchContext(ctx, x, qs))
		},
		func(ctx context.Context, ids []rsse.ID) ([]rsse.Tuple, error) { return c.FetchTuples(ctx, x, ids) },
	}
}

// clusterTarget answers through c, checking that each query ran on
// exactly the shards its range spans and came back complete, and —
// when pipelined is set — noting a shard sub-query whose raw ids took
// more than one fetch chunk.
func clusterTarget(c *rsse.Cluster, pipelined *bool) target {
	span := func(q rsse.Range) int { return c.ShardOf(q.Hi) - c.ShardOf(q.Lo) + 1 }
	return target{
		func(ctx context.Context, q rsse.Range) (answer, error) {
			res, err := c.QueryBatchContext(ctx, []rsse.Range{q})
			if err != nil {
				return answer{}, err
			}
			if len(res.Shards) != span(q) {
				return answer{}, fmt.Errorf("%v ran on %d shards, spans %d", q, len(res.Shards), span(q))
			}
			for _, sh := range res.Shards {
				if pipelined != nil && sh.Stats.FetchedTuples > core.FetchChunk {
					*pipelined = true
				}
			}
			a := idAnswer(res.Results[0])
			a.shards = span(q)
			return a, res.PartialErr()
		},
		func(ctx context.Context, qs []rsse.Range) ([]answer, *rsse.BatchStats, error) {
			br, err := c.QueryBatchContext(ctx, qs)
			if err != nil {
				return nil, nil, err
			}
			if n := len(br.Shards); n == 0 || n > c.Shards() {
				return nil, nil, fmt.Errorf("batch ran on %d of %d shards", n, c.Shards())
			}
			as := idAnswers(br.Results)
			for i, q := range qs {
				as[i].shards = span(q)
			}
			return as, &br.Stats, br.PartialErr()
		},
		c.FetchTuples,
	}
}

// ask runs ranges through tg one at a time — then, batched or faulted,
// as one batch, whose answers must equal the single-range ones as id
// and group-size multisets — with every answer the model's and, given a
// reference (an identically seeded local owner asked the same
// sequence), raw ids and matches equal to its own element for element.
// Then a few tuples are fetched.
func (f *fixture) ask(t *testing.T, m *model, ranges []rsse.Range, tg, ref target, mod string) {
	t.Helper()
	ctx := context.Background()
	singles := make([]answer, len(ranges))
	for i, q := range ranges {
		a, err := tg.one(ctx, q)
		if err == nil {
			err = m.check(f.kind, q, a)
		}
		if err == nil && ref.one != nil {
			if r, rerr := ref.one(ctx, q); rerr != nil || !slices.Equal(a.raw, r.raw) || !slices.Equal(a.matches, r.matches) {
				err = fmt.Errorf("raw ids %v, the reference owner's %v (%v)", a.raw, r.raw, rerr)
			}
		}
		if err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		singles[i] = a
	}
	if mod == "batch" || mod == "faulted" {
		qs := ranges[:min(len(ranges), 8)]
		if mod == "batch" {
			qs = ranges
		}
		as, st, err := tg.batch(ctx, qs)
		must(t, err)
		var refs []answer
		if ref.batch != nil {
			refs, _, err = ref.batch(ctx, qs)
			must(t, err)
		}
		for i, q := range qs {
			a, s := as[i], singles[i]
			err := m.check(f.kind, q, a)
			switch {
			case err != nil:
			case !equal(sorted(a.raw), sorted(s.raw)):
				err = fmt.Errorf("batch raw ids %v, single %v", a.raw, s.raw)
			case a.stats != nil && !slices.Equal(slices.Sorted(slices.Values(a.stats.Groups)), slices.Sorted(slices.Values(s.stats.Groups))):
				err = fmt.Errorf("batch group sizes %v, single %v", a.stats.Groups, s.stats.Groups)
			case refs != nil && (!slices.Equal(a.raw, refs[i].raw) || !slices.Equal(a.matches, refs[i].matches)):
				err = errors.New("batch raw ids or matches differ from the reference owner's")
			}
			if err != nil {
				t.Fatalf("batch range %d %v: %v", i, q, err)
			}
		}
		if st != nil {
			must(t, checkBatchStats(st, len(qs)))
		}
	}
	if tg.fetch != nil {
		must(t, fetchCheck(tg, f.data[len(f.data)-1], f.data[0], f.data[len(f.data)/2]))
	}
}

// refuses asks tg an inverted range and a range past the domain, singly
// and, where tg batches, as a batch: each must fail with an error of its
// own — not a cache miss — and never panic or come back with an answer.
func (f *fixture) refuses(t *testing.T, tg target) {
	t.Helper()
	ctx, m := context.Background(), uint64(1)<<f.bits
	for _, q := range []rsse.Range{{Lo: m / 4, Hi: m / 8}, {Lo: m - 2, Hi: m + 5}} {
		err := noPanic(func() error {
			a, err := tg.one(ctx, q)
			if err == nil {
				return fmt.Errorf("answered %v", a.matches)
			}
			if tg.batch != nil {
				if as, _, berr := tg.batch(ctx, []rsse.Range{f.ranges[0], q}); berr == nil {
					return fmt.Errorf("answered a batch holding it with %d results", len(as))
				}
			}
			if errors.Is(err, rsse.ErrNotCached) {
				return fmt.Errorf("refused as a cache miss, not for its bounds: %w", err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("invalid range %v: %v", q, err)
		}
	}
}

// noPanic runs fn, turning a panic into an error.
func noPanic(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// checkBatchStats checks the accounting every batch reports: one range
// per query, and no more tokens sent than the covers asked for.
func checkBatchStats(st *rsse.BatchStats, ranges int) error {
	if st.Ranges != ranges || st.CoverNodes < st.UniqueTokens {
		return fmt.Errorf("batch stats: %d ranges for %d, %d cover nodes for %d tokens", st.Ranges, ranges, st.CoverNodes, st.UniqueTokens)
	}
	return nil
}

// fetchCheck fetches the wanted tuples' ids in one call and checks
// that each comes back whole, in order.
func fetchCheck(tg target, want ...rsse.Tuple) error {
	ids := make([]rsse.ID, len(want))
	for i, w := range want {
		ids[i] = w.ID
	}
	got, err := tg.fetch(context.Background(), ids)
	if err != nil || len(got) != len(want) {
		return fmt.Errorf("fetch %v: %d tuples, %v", ids, len(got), err)
	}
	for i, w := range want {
		if g := got[i]; g.ID != w.ID || g.Value != w.Value || !bytes.Equal(g.Payload, w.Payload) {
			return fmt.Errorf("fetch %d: %+v; want %+v", w.ID, g, w)
		}
	}
	return nil
}

// hammer asks f's ranges from 8 goroutines at once (one per target when
// given more): single queries, three-range batches and tuple fetches
// interleaved, every answer the model's.
func (f *fixture) hammer(t *testing.T, tgs ...target) {
	concurrently(t, max(8, len(tgs)), func(g int) error {
		tg, ctx := tgs[g%len(tgs)], context.Background()
		for i := range 12 {
			qs := []rsse.Range{f.ranges[(g*5+i)%len(f.ranges)], f.ranges[(g+i)%len(f.ranges)], f.ranges[i]}
			var as []answer
			var err error
			if i%3 == 2 {
				as, _, err = tg.batch(ctx, qs)
			} else {
				as = make([]answer, 1)
				as[0], err = tg.one(ctx, qs[0])
			}
			for j := range as {
				if err == nil {
					err = f.model.check(f.kind, qs[j], as[j])
				}
			}
			if err == nil && tg.fetch != nil {
				err = fetchCheck(tg, f.data[(g*37+i)%len(f.data)])
			}
			if err != nil {
				return fmt.Errorf("goroutine %d: %w", g, err)
			}
		}
		return nil
	})
}

// exercise answers f's model through tg under mod, after the invalid
// ranges — unless faulted, where the extra exchanges would shift the
// fault schedule.
func (f *fixture) exercise(t *testing.T, tg, ref target, mod string) {
	if mod != "faulted" {
		f.refuses(t, tg)
	}
	if mod == "concurrent" {
		f.hammer(t, tg)
	} else {
		f.ask(t, f.model, f.ranges, tg, ref, mod)
	}
}

// runLocal queries the built index, or the loaded copy.
func runLocal(t *testing.T, f *fixture, name, mod string) {
	x := f.built
	if name == "loaded" {
		x = f.loaded
	}
	f.exercise(t, clientTarget(f.owner(t, mod, false), x), target{}, mod)
}

// chaosRetry rides out the scheduled faults: the per-attempt deadline
// turns a black-holed connection into a retryable timeout, and is long
// enough that no legitimate op over delay-injected storage hits it.
func chaosRetry() rsse.RetryPolicy {
	return rsse.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		OpTimeout: time.Second, Seed: 11}
}

// chaos is the seeded fault schedule: the first connection's write side
// dies mid-request, the second's read side truncates a response
// mid-frame, the third black-holes its reads; on top, seeded noise
// closes ~2% of calls and delays 20%. The cell fails unless it bit.
func chaos(t *testing.T, seed int64) *fault.Injector {
	inj := fault.New(fault.Plan{Seed: seed, Rules: []fault.Rule{
		{Conn: 0, Side: fault.Write, Action: fault.Close, AfterCalls: 3},
		{Conn: 1, Side: fault.Read, Action: fault.Truncate, AtByte: 200},
		{Conn: 2, Side: fault.Read, Action: fault.BlackHole, AfterCalls: 2},
	}, CloseRate: 0.02, DelayRate: 0.2, MaxDelayMS: 1})
	t.Cleanup(func() {
		if st := inj.Stats(); st.Closes+st.Truncations+st.BlackHoles == 0 || st.Conns < 2 {
			t.Errorf("the fault plan never forced a redial: %+v", st)
		}
	})
	return inj
}

// slowStorage puts f's engine behind deterministic lookup delays,
// which widen the in-flight window the connection faults strike into
// without changing a byte of any response.
func (f *fixture) slowStorage(t *testing.T) rsse.Option {
	eng, err := storage.ByName(pairs[f.pi].engine)
	must(t, err)
	return rsse.WithStorageEngine(fault.Engine{Inner: eng, Plan: fault.BackendPlan{Seed: 1, DelayEvery: 64, DelayMS: 1}})
}

func serve(t *testing.T, reg *rsse.Registry) string {
	t.Helper()
	srv := rsse.NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(t, err)
	go srv.Serve(l)
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		l.Close()
	})
	return l.Addr().String()
}

// runRemote serves the loaded index over a pipe — with FetchMany hidden
// for remote-per-id — or over TCP, dialed with retries. Faulted, the TCP
// index sits on a delay-injecting storage engine and every connection
// passes the fault schedule; concurrent on the baseline, ten clients
// then share the one handle as well.
func runRemote(t *testing.T, f *fixture, name, mod string) {
	x := f.loaded
	var r *rsse.RemoteIndex
	if name == "remote-tcp" {
		dial := []rsse.Option{rsse.WithRetry(chaosRetry())}
		if mod == "faulted" {
			var err error
			x, err = f.owner(t, "", false, f.slowStorage(t)).BuildIndex(f.data)
			must(t, err)
			dial = append(dial, rsse.WithConnWrapper(chaos(t, 40+int64(f.kind)).Wrap))
		}
		reg := rsse.NewRegistry()
		must(t, reg.Register("conformance", x))
		var err error
		r, err = rsse.DialIndexWith("tcp", serve(t, reg), "conformance", dial...)
		must(t, err)
	} else {
		cliConn, srvConn := net.Pipe()
		go func() { _ = rsse.ServeConn(srvConn, x) }()
		r = rsse.NewRemoteIndex(cliConn)
	}
	t.Cleanup(func() { r.Close() })
	var src rsse.Source = r
	if name == "remote-per-id" {
		src = rsse.PerIDOnly(r)
	}
	f.exercise(t, clientTarget(f.owner(t, mod, false), src), clientTarget(f.owner(t, "", false), x), mod)
	if name == "remote-tcp" && mod == "concurrent" && f.pi == 0 {
		tgs := make([]target, 10)
		for i := range tgs {
			tgs[i] = clientTarget(f.owner(t, mod, false), r)
		}
		f.hammer(t, tgs...)
	}
}

// runCluster builds f's data into two shards on even pairs and four on
// odd ones, split on quantiles for every other two pairs. Dialed, the
// shards are served on two TCP servers or, on every other rotation,
// over pipes with per-id fetch targets; faulted, over TCP through the
// fault schedule with shard retries, on delay-injecting shard storage. A dialed cluster's reference is
// its shards opened locally under identically seeded shard clients. On
// two shards of an SRC kind, some shard sub-query must take the
// pipelined fetch path.
func runCluster(t *testing.T, f *fixture, name, mod string) {
	k, opts := 2+2*(f.pi%2), f.opts(mod, true)
	if mod == "faulted" {
		opts = append(opts, f.slowStorage(t))
	}
	split := opts
	if f.pi%4 >= 2 {
		split = append(split[:len(split):len(split)], rsse.WithQuantileSplit())
	}
	c, err := rsse.BuildCluster(f.kind, f.bits, k, f.data, split...)
	must(t, err)
	if c.Shards() != k {
		t.Fatalf("Shards = %d, want %d", c.Shards(), k)
	}
	var ref target
	if built := c; name == "cluster-dialed" {
		local, err := rsse.OpenCluster(built.Manifest("cx"), built.MasterKey(),
			func(i int, _ rsse.ClusterShardInfo) (*rsse.Index, error) { return built.ShardIndex(i), nil }, opts...)
		must(t, err)
		ref = clusterTarget(local, nil)
		switch {
		case mod == "faulted":
			c, err = rsse.DialCluster("tcp", "", serveCluster(t, built, "cx", 2), built.MasterKey(), append(opts,
				rsse.WithConnWrapper(chaos(t, 60+int64(f.kind)).Wrap), rsse.WithRetry(chaosRetry()))...)
		case (int(f.kind)+f.pi)%2 == 0:
			c, err = rsse.DialCluster("tcp", "", serveCluster(t, built, "cx", 2), built.MasterKey(), opts...)
		default:
			c, err = rsse.PipeCluster(built, true, opts...)
		}
		must(t, err)
		t.Cleanup(func() { c.Close() })
	}
	if mod != "faulted" {
		f.refuses(t, clusterTarget(c, nil))
	}
	if mod == "concurrent" {
		f.hammer(t, clusterTarget(c, nil))
		return
	}
	pipelined := false
	f.ask(t, f.model, f.ranges, clusterTarget(c, &pipelined), ref, mod)
	if k == 2 && f.kind.HasFalsePositives() && !pipelined {
		t.Fatalf("no shard sub-query returned more than %d raw ids", core.FetchChunk)
	}
}

// runCached runs the cached client's script on the Constant kinds, over
// the built index or, remote, over a pipe to it: disjoint ranges reach
// the server and are cached, and the invalid ranges are refused, some
// inside what is cached; covered sub-ranges ending and starting on
// stored values, a union of two cached ranges and a repeat are answered
// with no round; an uncovered intersecting range fails with
// ErrNotCached, and the guarded client under the cache refuses it with
// ErrIntersectingQuery. Every other kind is refused a cache.
func runCached(t *testing.T, f *fixture, _, mod string) {
	client := f.owner(t, mod, true)
	if f.kind != rsse.ConstantBRC && f.kind != rsse.ConstantURC {
		if _, err := rsse.NewCachedClient(client, f.built); err == nil {
			t.Fatal("NewCachedClient accepted a kind without the intersection guard")
		}
		return
	}
	var src rsse.Source = f.built
	if mod == "remote" {
		cliConn, srvConn := net.Pipe()
		go func() { _ = rsse.ServeConn(srvConn, f.built) }()
		r := rsse.NewRemoteIndex(cliConn)
		t.Cleanup(func() { r.Close() })
		src = r
	}
	cc, err := rsse.NewCachedClient(client, src)
	must(t, err)
	m := uint64(1) << f.bits
	a, b, c := rsse.Range{Lo: 0, Hi: m/4 - 1}, rsse.Range{Lo: m / 4, Hi: m/2 - 1}, rsse.Range{Lo: 3 * m / 4, Hi: m - 1}
	in := f.model.answer(a)
	for _, step := range [][]rsse.Range{{a, b, c},
		{{Lo: in[0].Value / 2, Hi: in[0].Value}, {Lo: in[1].Value, Hi: a.Hi}, {Lo: m / 8, Hi: 3 * m / 8}, c}} {
		var rs []*rsse.Result
		if mod == "batch" {
			br, err := cc.QueryBatchContext(context.Background(), step)
			must(t, err)
			must(t, checkBatchStats(&br.Stats, len(step)))
			rs = br.Results
		}
		for i, q := range step {
			if mod != "batch" {
				r, err := cc.QueryContext(context.Background(), q)
				must(t, err)
				rs = append(rs, r)
			}
			must(t, f.model.check(f.kind, q, idAnswer(rs[i])))
			if cached := step[0] != a; (rs[i].Stats.Rounds == 0) != cached {
				t.Fatalf("%v: %d rounds, want cached %v", q, rs[i].Stats.Rounds, cached)
			}
		}
		if step[0] == a {
			f.refuses(t, target{
				one: func(ctx context.Context, q rsse.Range) (answer, error) { return one(cc.QueryContext(ctx, q)) },
				batch: func(ctx context.Context, qs []rsse.Range) ([]answer, *rsse.BatchStats, error) {
					return batch(cc.QueryBatchContext(ctx, qs))
				},
			})
		}
	}
	miss := rsse.Range{Lo: m/2 - 8, Hi: m/2 + 8}
	if _, err := cc.QueryContext(context.Background(), miss); !errors.Is(err, rsse.ErrNotCached) {
		t.Fatalf("uncovered intersecting %v: err %v, want ErrNotCached", miss, err)
	}
	if _, err := client.QueryContext(context.Background(), f.built, miss); !errors.Is(err, rsse.ErrIntersectingQuery) {
		t.Fatalf("guarded %v: err %v, want ErrIntersectingQuery", miss, err)
	}
}

// updater is the write half every dynamic shape shares.
type updater interface {
	Insert(id rsse.ID, value rsse.Value, payload []byte) error
	Delete(id rsse.ID, value rsse.Value) error
	Modify(id rsse.ID, oldValue, newValue rsse.Value, payload []byte) error
	Flush() error
}

// storeTarget answers through the store get returns: a one-shard query
// fans out to every active index, a sharded one to no more than all.
func storeTarget(get func() *rsse.Dynamic) target {
	fanout := func(st rsse.UpdateStats, err error) error {
		d := get()
		if err == nil && (st.Indexes > d.ActiveIndexes() || d.Shards() == 1 && st.Indexes != d.ActiveIndexes()) {
			err = fmt.Errorf("query touched %d indexes, %d active", st.Indexes, d.ActiveIndexes())
		}
		return err
	}
	return target{
		one: func(ctx context.Context, q rsse.Range) (answer, error) {
			ts, st, err := get().QueryContext(ctx, q)
			if err == nil && st.Raw-st.FalsePositives < len(ts) {
				err = fmt.Errorf("%d tuples from %d raw ids, %d false positives", len(ts), st.Raw, st.FalsePositives)
			}
			return tupleAnswer(ts), fanout(st, err)
		},
		batch: func(ctx context.Context, qs []rsse.Range) ([]answer, *rsse.BatchStats, error) {
			tss, st, err := get().QueryBatchContext(ctx, qs)
			as := make([]answer, len(tss))
			for i, ts := range tss {
				as[i] = tupleAnswer(ts)
			}
			return as, nil, fanout(st, err)
		},
	}
}

// runStore drives lsm's 400-step update stream — 60% inserts, 20%
// deletes and 10% modifies of live tuples, 10% flushes — into a dynamic
// store and a fresh model, flushing and asking the first eight ranges
// every 80 steps, then consolidates and asks again. Before the first
// flush it refuses the invalid ranges. At step 200, with
// updates pending, dynamic-durable closes and reopens; a plain
// sharded-dynamic cell, durable, moves a live tuple each way across the
// shard boundary, commits shard 0 alone and crashes before shard 1
// commits — reopened and flushed, it must hold exactly the model's live
// set: no acknowledged update lost, no moved tuple back at its old
// value. remote-dynamic streams through the write gateway over TCP.
func runStore(t *testing.T, f *fixture, name, mod string) {
	dir, opts := t.TempDir(), f.opts("", true)
	var d *rsse.Dynamic
	open := func() {
		var err error
		switch {
		case name == "dynamic-durable":
			d, err = rsse.OpenDynamic(dir, f.kind, f.bits, 3, opts...)
		case name == "sharded-dynamic" && mod == "plain":
			d, err = rsse.OpenShardedDynamic(dir, f.kind, f.bits, 2, 3, opts...)
		case name == "sharded-dynamic":
			d, err = rsse.NewShardedDynamic(f.kind, f.bits, 2, 3, opts...)
		default:
			d, err = rsse.NewDynamic(f.kind, f.bits, 3, opts...)
		}
		must(t, err)
	}
	open()
	t.Cleanup(func() { d.Close() })
	get, tg := func() updater { return d }, storeTarget(func() *rsse.Dynamic { return d })
	if name == "remote-dynamic" {
		reg := rsse.NewRegistry()
		must(t, reg.RegisterWritable(rsse.DefaultDynamicName, d))
		rd, err := rsse.DialDynamic("tcp", serve(t, reg), rsse.DefaultDynamicName)
		must(t, err)
		t.Cleanup(func() { rd.Close() })
		get, tg = func() updater { return rd }, target{one: func(ctx context.Context, q rsse.Range) (answer, error) {
			ts, err := rd.QueryContext(ctx, q)
			return tupleAnswer(ts), err
		}}
	}
	f.refuses(t, tg)
	m, rnd, size, next := newModel(nil), mrand.New(mrand.NewSource(int64(f.kind)+101)), uint64(1)<<f.bits, rsse.ID(1)
	for step := range 400 {
		live := slices.Sorted(maps.Keys(m.live))
		switch op := rnd.Intn(10); {
		case op < 6:
			tup := rsse.Tuple{ID: next, Value: rnd.Uint64() % size, Payload: fmt.Appendf(nil, "p%d", next)}
			must(t, get().Insert(tup.ID, tup.Value, tup.Payload))
			m.live[next], next = tup, next+1
		case op < 8 && len(live) > 0:
			victim := m.live[live[rnd.Intn(len(live))]]
			must(t, get().Delete(victim.ID, victim.Value))
			delete(m.live, victim.ID)
		case op < 9 && len(live) > 0:
			old := m.live[live[rnd.Intn(len(live))]]
			tup := rsse.Tuple{ID: old.ID, Value: rnd.Uint64() % size, Payload: fmt.Appendf(nil, "m%d", step)}
			must(t, get().Modify(old.ID, old.Value, tup.Value, tup.Payload))
			m.live[old.ID] = tup
		case op == 9:
			must(t, get().Flush())
			m.flush()
		}
		if step == 200 && name == "dynamic-durable" {
			pending := d.Pending()
			must(t, d.Close())
			if open(); d.Pending() != pending || pending == 0 {
				t.Fatalf("reopened with %d pending updates, closed with %d", d.Pending(), pending)
			}
		}
		if d.Shards() > 1 && step == 200 && mod == "plain" {
			for from := range 2 {
				for _, id := range slices.Sorted(maps.Keys(m.live)) {
					if tup := m.live[id]; d.ShardOf(tup.Value) == from {
						moved := rsse.Tuple{ID: id, Value: d.ShardRange(1 - from).Lo, Payload: []byte("moved")}
						must(t, d.Modify(id, tup.Value, moved.Value, moved.Payload))
						m.live[id] = moved
						break
					}
				}
			}
			must(t, rsse.FlushShard(d, 0))
			rsse.Crash(d)
			open()
			must(t, d.Flush())
			m.flush()
			f.ask(t, m, f.ranges, tg, target{}, mod)
		}
		if step%80 == 79 {
			must(t, get().Flush())
			m.flush()
			f.ask(t, m, f.ranges[:8], tg, target{}, mod)
		}
	}
	if name != "remote-dynamic" {
		must(t, d.FullConsolidate())
		if d.ActiveIndexes() != d.Shards() {
			t.Fatalf("%d active indexes after FullConsolidate, want %d", d.ActiveIndexes(), d.Shards())
		}
		f.ask(t, m, f.ranges, tg, target{}, mod)
	}
}

// concurrently runs fn on n goroutines released at once and reports
// every error they return.
func concurrently(t *testing.T, n int, fn func(g int) error) {
	t.Helper()
	start := make(chan struct{})
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- fn(g)
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
