package rsse_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rsse"
)

// testdata/pr17, testdata/pr18, testdata/pr27 and testdata/suite2-aes
// hold server-side state written by earlier commits, with those
// commits' code. pr17 is the last commit before indexes recorded a PRF
// suite: two Constant index files and a durable Dynamic directory with
// one flushed epoch and a WAL tail; their header byte 12 is that
// format's zero pad, i.e. suite 0. pr18 is
// the commit whose Constant default was suite 1: the same two index
// files built there, and pr17's Dynamic directory reopened there — its
// WAL tail plus one insert flushed into a suite-1 epoch beside the
// suite-0 one, then one more acknowledged insert left in the WAL. pr27
// is the last commit whose Logarithmic-URC default was suite 0, with
// HMAC keyword stags: a durable Logarithmic-URC directory written like
// pr17's. suite2-aes is from the last commit whose Constant and
// Logarithmic-URC defaults were suite 2, with AES-CTR cells: two
// Constant index files like pr17's (master key 0x46 repeated) and a
// durable Logarithmic-URC directory like pr27's. All of it must be served and queried
// correctly, unmodified, forever.
var parentFixtures = []struct {
	dir   string
	suite rsse.PRFSuite // of the index files, and of the newest epoch
	key   byte          // the index files' master key, repeated
}{
	{"testdata/pr17", rsse.SuiteSHA512, 0x17},
	{"testdata/pr18", rsse.SuiteSHA256, 0x18},
	{"testdata/suite2-aes", rsse.PRFSuite(2), 0x46},
}

func pr17Tuples() []rsse.Tuple {
	tuples := make([]rsse.Tuple, 120)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: uint64(i*37) % 1024, Payload: []byte{byte(i)}}
	}
	return tuples
}

// todaysSuite is the suite BuildIndex gives kind today — core's
// defaultSuite table, read off an index this build just built.
func todaysSuite(t *testing.T, kind rsse.Kind) rsse.PRFSuite {
	t.Helper()
	c, err := rsse.NewClient(kind, 10)
	must(t, err)
	idx, err := c.BuildIndex(pr17Tuples()[:4])
	must(t, err)
	meta, err := idx.MetaContext(context.Background())
	must(t, err)
	return meta.Suite
}

// TestParentBuiltConstantIndexes: a Constant index built at an earlier
// commit is an index of that commit's suite, 0, 1 or 2. Today's owner —
// whose own builds are of neither — learns that from Meta and derives
// its GGM tokens on that suite's tree: the answers are the plaintext
// oracle's on every engine, locally and over TCP, single and batched.
// Loaded on either engine, the file re-marshals to its own bytes.
func TestParentBuiltConstantIndexes(t *testing.T) {
	for _, fx := range parentFixtures {
		if fx.suite == todaysSuite(t, rsse.ConstantBRC) {
			t.Errorf("%s is of today's suite: it proves nothing about older indexes", fx.dir)
		}
		testParentBuiltConstantIndexes(t, fx.dir, fx.suite, bytes.Repeat([]byte{fx.key}, 32))
	}
}

func testParentBuiltConstantIndexes(t *testing.T, dir string, suite rsse.PRFSuite, key []byte) {
	tuples := pr17Tuples()
	ranges := []rsse.Range{{Lo: 0, Hi: 1023}, {Lo: 100, Hi: 300}, {Lo: 37, Hi: 37}, {Lo: 900, Hi: 1000}}
	for _, kind := range []rsse.Kind{rsse.ConstantBRC, rsse.ConstantURC} {
		path := filepath.Join(dir, kind.String()+".idx")
		meta, err := rsse.PeekIndexFile(path)
		must(t, err)
		if meta.Kind != kind || meta.Suite != suite || meta.N != len(tuples) {
			t.Fatalf("%s: peeked %+v, want %v, suite %v, %d tuples", path, meta, kind, suite, len(tuples))
		}
		owner := func() *rsse.Client {
			c, err := rsse.NewClient(kind, 10, rsse.WithMasterKey(key), rsse.AllowIntersectingQueries())
			must(t, err)
			return c
		}
		for _, engine := range rsse.StorageEngines() {
			index, err := rsse.OpenIndexFile(path, engine)
			if err != nil {
				t.Fatalf("%s onto %s: %v", path, engine, err)
			}
			file, err := os.ReadFile(path)
			must(t, err)
			if again, err := index.MarshalBinary(); err != nil || !bytes.Equal(again, file) {
				t.Fatalf("%s onto %s: re-marshal is not the file's bytes (%v)", path, engine, err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			must(t, err)
			go func() { _ = rsse.Serve(l, index) }()
			remote, err := rsse.Dial("tcp", l.Addr().String())
			must(t, err)
			c := owner()
			for _, q := range ranges {
				want := oracle(tuples, q)
				local, err := c.QueryContext(context.Background(), index, q)
				if err != nil {
					t.Fatalf("%v/%s local %v: %v", kind, engine, q, err)
				}
				wire, err := c.QueryContext(context.Background(), remote, q)
				if err != nil {
					t.Fatalf("%v/%s remote %v: %v", kind, engine, q, err)
				}
				if !equal(sorted(local.Raw), want) || !equal(sorted(wire.Raw), want) {
					t.Fatalf("%v/%s %v: local %d ids, remote %d ids, want %d", kind, engine, q, len(local.Raw), len(wire.Raw), len(want))
				}
			}
			br, err := c.QueryBatchContext(context.Background(), remote, []rsse.Range{{Lo: 0, Hi: 99}, {Lo: 500, Hi: 800}})
			must(t, err)
			for i, q := range []rsse.Range{{Lo: 0, Hi: 99}, {Lo: 500, Hi: 800}} {
				if !equal(sorted(br.Results[i].Raw), oracle(tuples, q)) {
					t.Fatalf("%v/%s batch %v wrong", kind, engine, q)
				}
			}
			remote.Close()
			l.Close()
			index.Close()
		}
	}
}

// TestDynamicSpansSuites: a durable store created at an earlier commit
// holds epoch files of that commit's suites — pr17's one suite-0
// Constant-BRC epoch, pr18's a suite-0 and a suite-1 one, pr27's one
// suite-0 Logarithmic-URC epoch, whose keyword stags are HMAC, and
// suite2-aes's one suite-2 Logarithmic-URC epoch, whose cells are
// AES-CTR. Reopened
// today it answers from them, replays its WAL tail, and seals new writes
// into an epoch of today's suite beside them; one query and one batch
// then draw on all of them, each epoch searched under its own suite (the
// owner takes it from the epoch's Meta). Full consolidation leaves one
// epoch, of today's suite.
func TestDynamicSpansSuites(t *testing.T) {
	// What the directories hold: ids 1..30 at (i*31)%1024, id 3 deleted,
	// flushed at pr17 (and likewise at pr27); then id 100 at 512,
	// acknowledged but unflushed — the WAL tail. pr18 replayed pr17's,
	// added id 200 at 93, flushed (its suite-1 epoch), and left id 300 at
	// 700 in its own WAL tail.
	base := map[rsse.ID]rsse.Value{}
	for i := 0; i < 30; i++ {
		base[rsse.ID(i+1)] = rsse.Value(i*31) % 1024
	}
	delete(base, 3)
	for _, fx := range []struct {
		dir     string
		kind    rsse.Kind
		epochs  []rsse.PRFSuite // of the epoch files as found
		flushed map[rsse.ID]rsse.Value
		tail    map[rsse.ID]rsse.Value
	}{
		{"testdata/pr17", rsse.ConstantBRC, []rsse.PRFSuite{rsse.SuiteSHA512}, nil, map[rsse.ID]rsse.Value{100: 512}},
		{"testdata/pr18", rsse.ConstantBRC, []rsse.PRFSuite{rsse.SuiteSHA512, rsse.SuiteSHA256}, map[rsse.ID]rsse.Value{100: 512, 200: 93}, map[rsse.ID]rsse.Value{300: 700}},
		{"testdata/pr27", rsse.LogarithmicURC, []rsse.PRFSuite{rsse.SuiteSHA512}, nil, map[rsse.ID]rsse.Value{100: 512}},
		{"testdata/suite2-aes", rsse.LogarithmicURC, []rsse.PRFSuite{rsse.PRFSuite(2)}, nil, map[rsse.ID]rsse.Value{100: 512}},
	} {
		t.Run(filepath.Base(fx.dir), func(t *testing.T) {
			want := map[rsse.ID]rsse.Value{}
			for id, v := range base {
				want[id] = v
			}
			for id, v := range fx.flushed {
				want[id] = v
			}
			src := filepath.Join(fx.dir, "dynamic-"+fx.kind.String())
			testDynamicSpansSuites(t, src, fx.kind, fx.epochs, todaysSuite(t, fx.kind), want, fx.tail)
		})
	}
}

func testDynamicSpansSuites(t *testing.T, src string, kind rsse.Kind, epochs []rsse.PRFSuite, today rsse.PRFSuite, want, tail map[rsse.ID]rsse.Value) {
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	must(t, err)
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		must(t, err)
		if err := os.WriteFile(filepath.Join(dir, e.Name()), blob, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	ranges := []rsse.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 511}, {Lo: 512, Hi: 700}, {Lo: 93, Hi: 93}}
	checkAnswer := func(label string, q rsse.Range, got []rsse.Tuple) {
		t.Helper()
		var ids, exp []rsse.ID
		for _, tu := range got {
			if want[tu.ID] != tu.Value {
				t.Fatalf("%s: query %v returned id %d at %d, want value %d", label, q, tu.ID, tu.Value, want[tu.ID])
			}
			ids = append(ids, tu.ID)
		}
		for id, v := range want {
			if q.Contains(v) {
				exp = append(exp, id)
			}
		}
		if !equal(sorted(ids), sorted(exp)) {
			t.Fatalf("%s: query %v returned ids %v, want %v", label, q, sorted(ids), sorted(exp))
		}
	}
	check := func(d *rsse.Dynamic, label string) {
		t.Helper()
		for _, q := range ranges {
			got, _, err := d.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: query %v: %v", label, q, err)
			}
			checkAnswer(label, q, got)
		}
		got, _, err := d.QueryBatchContext(context.Background(), ranges)
		if err != nil {
			t.Fatalf("%s: batch: %v", label, err)
		}
		for i, q := range ranges {
			checkAnswer(label+"/batch", q, got[i])
		}
	}
	// epochSuites peeks every epoch file in the directory, by name.
	epochSuites := func() map[string]rsse.PRFSuite {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "epoch-*.idx"))
		must(t, err)
		out := map[string]rsse.PRFSuite{}
		for _, f := range files {
			meta, err := rsse.PeekIndexFile(f)
			must(t, err)
			out[filepath.Base(f)] = meta.Suite
		}
		return out
	}
	open := func() *rsse.Dynamic {
		t.Helper()
		d, err := rsse.OpenDynamic(dir, kind, 10, 0, rsse.AllowIntersectingQueries(), rsse.WithSSE("basic"))
		must(t, err)
		return d
	}

	d := open()
	check(d, "reopened")
	if d.Pending() != len(tail) {
		t.Fatalf("%d pending ops after replaying the parent's WAL tail, want %d", d.Pending(), len(tail))
	}
	// Value 93 then has an id in the oldest epoch (id 4), in pr18's
	// suite-1 epoch (id 200) and in the one sealed now, so the [93, 93]
	// query only answers right if it drew on every epoch.
	if err := d.Insert(900, 93, []byte("new")); err != nil {
		t.Fatal(err)
	}
	want[900] = 93
	for id, v := range tail {
		want[id] = v
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(epochs, today) {
		t.Fatalf("a fixture epoch is already of today's suite %v: nothing is spanned", today)
	}
	wantEpochs := map[string]rsse.PRFSuite{}
	for i, s := range append(slices.Clone(epochs), today) {
		wantEpochs[fmt.Sprintf("epoch-%d.idx", i)] = s
	}
	if got := epochSuites(); !maps.Equal(got, wantEpochs) {
		t.Fatalf("epoch files %v, want %v: the parent's epochs as found, the fresh one at today's suite", got, wantEpochs)
	}
	if d.ActiveIndexes() != len(epochs)+1 {
		t.Fatalf("%d active epochs, want the %d old ones and the new one", d.ActiveIndexes(), len(epochs))
	}
	check(d, "spanning suites")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// And across a restart, which loads every epoch file from disk.
	d = open()
	check(d, "spanning suites, reopened")
	// Consolidation rebuilds everything under today's suite.
	if err := d.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	check(d, "consolidated")
	if d.ActiveIndexes() != 1 {
		t.Fatalf("%d active epochs after full consolidation, want 1", d.ActiveIndexes())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for name, s := range epochSuites() {
		if s != today {
			t.Errorf("%s is still of suite %v after full consolidation, want only %v", name, s, today)
		}
	}
	d = open()
	check(d, "consolidated, reopened")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterShardsReportSuite: every shard of a built cluster is an
// ordinary index of its kind's default suite, and says so.
func TestClusterShardsReportSuite(t *testing.T) {
	tuples := pr17Tuples()
	if todaysSuite(t, rsse.ConstantBRC) == todaysSuite(t, rsse.LogarithmicBRC) {
		t.Error("Constant and Logarithmic kinds build the same suite: the shards' reports are not told apart")
	}
	for _, kind := range []rsse.Kind{rsse.ConstantBRC, rsse.ConstantURC, rsse.LogarithmicBRC, rsse.LogarithmicURC, rsse.LogarithmicSRCi} {
		want := todaysSuite(t, kind)
		cluster, err := rsse.BuildCluster(kind, 10, 3, tuples)
		must(t, err)
		for i := 0; i < cluster.Shards(); i++ {
			meta, err := cluster.ShardIndex(i).MetaContext(context.Background())
			must(t, err)
			if meta.Suite != want {
				t.Errorf("%v shard %d reports suite %v, want %v", kind, i, meta.Suite, want)
			}
		}
		res, err := cluster.QueryBatchContext(context.Background(), []rsse.Range{{Lo: 0, Hi: 1023}})
		must(t, err)
		if len(res.Results[0].Matches) != len(tuples) {
			t.Errorf("%v: full-domain cluster query returned %d of %d tuples", kind, len(res.Results[0].Matches), len(tuples))
		}
	}
}
