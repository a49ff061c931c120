package rsse_test

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"rsse"
)

// testdata/pr17 holds server-side state written by the last commit
// before indexes recorded a PRF suite (PR 17): two Constant index files
// and a durable Dynamic directory with one flushed epoch and a WAL
// tail. Their header byte 12 is that format's zero pad, i.e. suite 0.
// They must be served and queried correctly, unmodified, forever.
const pr17Dir = "testdata/pr17"

func pr17Key() []byte { return bytes.Repeat([]byte{0x17}, 32) }

func pr17Tuples() []rsse.Tuple {
	tuples := make([]rsse.Tuple, 120)
	for i := range tuples {
		tuples[i] = rsse.Tuple{ID: uint64(i + 1), Value: uint64(i*37) % 1024, Payload: []byte{byte(i)}}
	}
	return tuples
}

func sortedIDsOf(ids []rsse.ID) []rsse.ID {
	out := append([]rsse.ID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []rsse.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParentBuiltConstantIndexes: a Constant index built at the parent
// commit is a suite-0 index. Today's owner — whose own builds are suite
// 1 — learns that from Meta and derives its GGM tokens on the suite-0
// tree: the answers are the plaintext oracle's on every engine, locally
// and over TCP, single and batched.
func TestParentBuiltConstantIndexes(t *testing.T) {
	tuples := pr17Tuples()
	ranges := []rsse.Range{{Lo: 0, Hi: 1023}, {Lo: 100, Hi: 300}, {Lo: 37, Hi: 37}, {Lo: 900, Hi: 1000}}
	for _, kind := range []rsse.Kind{rsse.ConstantBRC, rsse.ConstantURC} {
		path := filepath.Join(pr17Dir, kind.String()+".idx")
		meta, err := rsse.PeekIndexFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Kind != kind || meta.Suite != rsse.SuiteSHA512 || meta.N != len(tuples) {
			t.Fatalf("%s: peeked %+v, want %v, suite 0, %d tuples", path, meta, kind, len(tuples))
		}
		owner := func() *rsse.Client {
			c, err := rsse.NewClient(kind, 10, rsse.WithMasterKey(pr17Key()), rsse.AllowIntersectingQueries())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		for _, engine := range rsse.StorageEngines() {
			index, err := rsse.OpenIndexFile(path, engine)
			if err != nil {
				t.Fatalf("%s onto %s: %v", path, engine, err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = rsse.Serve(l, index) }()
			remote, err := rsse.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c := owner()
			for _, q := range ranges {
				want := matchesOf(tuples, q)
				local, err := c.Query(index, q)
				if err != nil {
					t.Fatalf("%v/%s local %v: %v", kind, engine, q, err)
				}
				wire, err := c.QueryRemote(remote, q)
				if err != nil {
					t.Fatalf("%v/%s remote %v: %v", kind, engine, q, err)
				}
				if !sameIDs(sortedIDsOf(local.Raw), want) || !sameIDs(sortedIDsOf(wire.Raw), want) {
					t.Fatalf("%v/%s %v: local %d ids, remote %d ids, want %d", kind, engine, q, len(local.Raw), len(wire.Raw), len(want))
				}
			}
			br, err := c.QueryBatchRemote(remote, []rsse.Range{{Lo: 0, Hi: 99}, {Lo: 500, Hi: 800}})
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range []rsse.Range{{Lo: 0, Hi: 99}, {Lo: 500, Hi: 800}} {
				if !sameIDs(sortedIDsOf(br.Results[i].Raw), matchesOf(tuples, q)) {
					t.Fatalf("%v/%s batch %v wrong", kind, engine, q)
				}
			}
			remote.Close()
			l.Close()
			index.Close()
		}
	}
}

// TestDynamicSpansSuites: a durable Constant-BRC store created at the
// parent commit holds a suite-0 epoch file. Reopened today it answers
// from that epoch, replays its WAL tail, and seals new writes into a
// suite-1 epoch beside it; one query then draws on both, each searched
// under its own suite (the owner takes it from the epoch's Meta).
func TestDynamicSpansSuites(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(pr17Dir, "dynamic-Constant-BRC")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), blob, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	// What the parent wrote: ids 1..30 at (i*31)%1024, id 3 deleted,
	// flushed; then id 100 at 512, acknowledged but unflushed — it is in
	// the WAL and becomes visible with the next flush.
	want := map[rsse.ID]rsse.Value{}
	for i := 0; i < 30; i++ {
		want[rsse.ID(i+1)] = rsse.Value(i*31) % 1024
	}
	delete(want, 3)
	check := func(d *rsse.Dynamic, label string) {
		t.Helper()
		for _, q := range []rsse.Range{{Lo: 0, Hi: 1023}, {Lo: 0, Hi: 511}, {Lo: 512, Hi: 600}, {Lo: 93, Hi: 93}} {
			got, _, err := d.Query(q)
			if err != nil {
				t.Fatalf("%s: query %v: %v", label, q, err)
			}
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
			if !sameIDs(sortedIDsOf(ids), sortedIDsOf(exp)) {
				t.Fatalf("%s: query %v returned ids %v, want %v", label, q, sortedIDsOf(ids), sortedIDsOf(exp))
			}
		}
	}
	suiteOf := func(file string) rsse.PRFSuite {
		t.Helper()
		meta, err := rsse.PeekIndexFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		return meta.Suite
	}

	d, err := rsse.OpenDynamic(dir, rsse.ConstantBRC, 10, 0, rsse.AllowIntersectingQueries(), rsse.WithSSE("basic"))
	if err != nil {
		t.Fatal(err)
	}
	check(d, "reopened")
	if d.Pending() != 1 {
		t.Fatalf("%d pending ops after replaying the parent's WAL tail, want 1", d.Pending())
	}
	if err := d.Insert(200, 93, []byte("new")); err != nil {
		t.Fatal(err)
	}
	want[100], want[200] = 512, 93
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if s0, s1 := suiteOf("epoch-0.idx"), suiteOf("epoch-1.idx"); s0 != rsse.SuiteSHA512 || s1 != rsse.SuiteSHA256 {
		t.Fatalf("epoch suites %v and %v, want the parent's epoch at suite 0 and the fresh one at suite 1", s0, s1)
	}
	if d.ActiveIndexes() != 2 {
		t.Fatalf("%d active epochs, want the old one and the new one", d.ActiveIndexes())
	}
	check(d, "two suites")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// And across a restart, which loads both epoch files from disk.
	if d, err = rsse.OpenDynamic(dir, rsse.ConstantBRC, 10, 0, rsse.AllowIntersectingQueries(), rsse.WithSSE("basic")); err != nil {
		t.Fatal(err)
	}
	check(d, "two suites, reopened")
	// Consolidation rebuilds everything under today's suite.
	if err := d.FullConsolidate(); err != nil {
		t.Fatal(err)
	}
	check(d, "consolidated")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterShardsReportSuite: every shard of a built cluster is an
// ordinary index of its kind's default suite, and says so.
func TestClusterShardsReportSuite(t *testing.T) {
	tuples := pr17Tuples()
	for kind, want := range map[rsse.Kind]rsse.PRFSuite{
		rsse.ConstantBRC:     rsse.SuiteSHA256,
		rsse.ConstantURC:     rsse.SuiteSHA256,
		rsse.LogarithmicBRC:  rsse.SuiteSHA512,
		rsse.LogarithmicSRCi: rsse.SuiteSHA512,
	} {
		cluster, err := rsse.BuildCluster(kind, 10, 3, tuples)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cluster.Shards(); i++ {
			meta, err := cluster.ShardIndex(i).Meta()
			if err != nil {
				t.Fatal(err)
			}
			if meta.Suite != want {
				t.Errorf("%v shard %d reports suite %v, want %v", kind, i, meta.Suite, want)
			}
		}
		res, err := cluster.Query(rsse.Range{Lo: 0, Hi: 1023})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != len(tuples) {
			t.Errorf("%v: full-domain cluster query returned %d of %d tuples", kind, len(res.Matches), len(tuples))
		}
	}
}
