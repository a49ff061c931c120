package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rsse/internal/storage"
)

// sink drains one side of a pipe into a buffer until EOF/close.
func sink(c net.Conn) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, c)
		out <- buf.Bytes()
	}()
	return out
}

func TestTruncateWriteAtByte(t *testing.T) {
	client, server := net.Pipe()
	in := New(Plan{Seed: 1, Rules: []Rule{{Conn: 0, Side: Write, Action: Truncate, AtByte: 5}}})
	fc := in.Wrap(client)
	got := sink(server)

	n, err := fc.Write([]byte("0123456789"))
	if n != 5 {
		t.Fatalf("wrote %d bytes, want 5", n)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if b := <-got; string(b) != "01234" {
		t.Fatalf("peer saw %q, want %q", b, "01234")
	}
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("write after truncate should fail")
	}
	if s := in.Stats(); s.Truncations == 0 || s.BytesWritten != 5 {
		t.Fatalf("stats = %+v, want 1 truncation and 5 bytes written", s)
	}
}

func TestTruncateReadAtByte(t *testing.T) {
	client, server := net.Pipe()
	in := New(Plan{Seed: 1, Rules: []Rule{{Conn: 0, Side: Read, Action: Truncate, AtByte: 4}}})
	fc := in.Wrap(client)
	go server.Write([]byte("abcdefgh"))

	buf := make([]byte, 16)
	n, err := fc.Read(buf)
	if err != nil || n != 4 {
		t.Fatalf("first read = (%d, %v), want (4, nil)", n, err)
	}
	if string(buf[:n]) != "abcd" {
		t.Fatalf("read %q, want %q", buf[:n], "abcd")
	}
	if _, err := fc.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read err = %v, want ErrInjected", err)
	}
}

func TestDropNthWrite(t *testing.T) {
	client, server := net.Pipe()
	in := New(Plan{Seed: 1, Rules: []Rule{{Conn: -1, Side: Write, Action: Drop, AfterCalls: 2}}})
	fc := in.Wrap(client)
	got := sink(server)

	for _, s := range []string{"aa", "bb", "cc"} {
		if n, err := fc.Write([]byte(s)); n != 2 || err != nil {
			t.Fatalf("write %q = (%d, %v)", s, n, err)
		}
	}
	fc.Close()
	if b := <-got; string(b) != "aacc" {
		t.Fatalf("peer saw %q, want %q (2nd write dropped)", b, "aacc")
	}
	if s := in.Stats(); s.Drops != 1 {
		t.Fatalf("drops = %d, want 1", s.Drops)
	}
}

func TestCloseOnNthRead(t *testing.T) {
	client, server := net.Pipe()
	in := New(Plan{Seed: 1, Rules: []Rule{{Conn: 0, Side: Read, Action: Close, AfterCalls: 2}}})
	fc := in.Wrap(client)
	go func() {
		server.Write([]byte("hi"))
	}()

	buf := make([]byte, 2)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, err := fc.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read err = %v, want ErrInjected", err)
	}
	// The underlying conn must actually be closed.
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("underlying conn still open after injected close")
	}
}

func TestBlackHoleReadBlocksUntilClose(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	in := New(Plan{Seed: 1, Rules: []Rule{{Conn: 0, Side: Read, Action: BlackHole}}})
	fc := in.Wrap(client)

	errc := make(chan error, 1)
	go func() {
		_, err := fc.Read(make([]byte, 1))
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("black-holed read returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	fc.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("err = %v, want ErrInjected", err)
		}
	case <-time.After(time.Second):
		t.Fatal("read did not unblock on close")
	}
}

func TestBlackHoleWriteSwallowsForever(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	in := New(Plan{Seed: 1, Rules: []Rule{{Conn: 0, Side: Write, Action: BlackHole, AfterCalls: 1}}})
	fc := in.Wrap(client)

	// No reader on the peer: a real pipe write would block, so success
	// proves the bytes were swallowed.
	for i := 0; i < 3; i++ {
		if n, err := fc.Write([]byte("zz")); n != 2 || err != nil {
			t.Fatalf("write %d = (%d, %v)", i, n, err)
		}
	}
}

// decisions replays N write decisions against a throwaway conn.
func decisions(plan Plan, ordinal int64, n int) []Action {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	c := newConn(c1, New(plan), ordinal)
	out := make([]Action, n)
	for i := range out {
		out[i] = c.decide(Write).action
	}
	return out
}

func TestNoiseDeterministicFromSeed(t *testing.T) {
	plan := Plan{Seed: 42, DropRate: 0.3}
	a := decisions(plan, 0, 200)
	b := decisions(plan, 0, 200)
	var drops int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i] == Drop {
			drops++
		}
	}
	if drops == 0 || drops == 200 {
		t.Fatalf("drop rate 0.3 produced %d/200 drops", drops)
	}
	// Different ordinals must not share a stream.
	c := decisions(plan, 1, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == 200 {
		t.Fatal("conn ordinals 0 and 1 produced identical noise streams")
	}
}

func TestParseAndLoadPlan(t *testing.T) {
	src := `{"seed":7,"rules":[{"conn":-1,"side":"read","action":"close","after_calls":3}],"drop_rate":0.1}`
	p, err := ParsePlan([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || len(p.Rules) != 1 || p.Rules[0].Action != Close || p.DropRate != 0.1 {
		t.Fatalf("parsed %+v", p)
	}
	if _, err := ParsePlan([]byte(`{"rules":[{"action":"explode"}]}`)); err == nil {
		t.Fatal("unknown action accepted")
	}
	if _, err := ParsePlan([]byte(`{"rules":[{"action":"drop","side":"sideways"}]}`)); err == nil {
		t.Fatal("unknown side accepted")
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if q, err := LoadPlan(path); err != nil || q.Seed != 7 {
		t.Fatalf("LoadPlan = (%+v, %v)", q, err)
	}
}

func TestWrapDialAssignsOrdinals(t *testing.T) {
	in := New(Plan{Seed: 1})
	dial := in.WrapDial(func(network, addr string) (net.Conn, error) {
		c, _ := net.Pipe()
		return c, nil
	})
	for i := 0; i < 3; i++ {
		c, err := dial("tcp", "ignored")
		if err != nil {
			t.Fatal(err)
		}
		if got := c.(*conn).id; got != int64(i) {
			t.Fatalf("conn %d got ordinal %d", i, got)
		}
		c.Close()
	}
	if s := in.Stats(); s.Conns != 3 {
		t.Fatalf("conns = %d, want 3", s.Conns)
	}
}

func TestBackendWrapperPreservesResults(t *testing.T) {
	b := storage.Sorted{}.NewBuilder(2, 0)
	want := map[string]string{"k1": "v1", "k2": "v2", "k3": "v3"}
	for k, v := range want {
		if err := b.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	be, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	fb := WrapBackend(be, BackendPlan{Seed: 3, DelayEvery: 2, DelayMS: 1})
	if fb == be {
		t.Fatal("enabled plan should wrap the backend")
	}
	for k, v := range want {
		got, ok := fb.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("Get(%q) = (%q, %v)", k, got, ok)
		}
	}
	if fb.Len() != 3 || fb.KeyLen() != 2 {
		t.Fatalf("Len/KeyLen = %d/%d", fb.Len(), fb.KeyLen())
	}
	// Disabled plans are pass-through.
	if WrapBackend(be, BackendPlan{}) != be {
		t.Fatal("disabled plan should not wrap")
	}
}

func TestFaultEngineSealsWrappedBackends(t *testing.T) {
	eng := Engine{Inner: storage.Sorted{}, Plan: BackendPlan{Seed: 1, DelayEvery: 1, DelayMS: 1}}
	if eng.Name() != "fault+sorted" {
		t.Fatalf("name = %q", eng.Name())
	}
	bld := eng.NewBuilder(1, 0)
	if err := bld.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	be, err := bld.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := be.(*backend); !ok {
		t.Fatalf("sealed backend is %T, want fault wrapper", be)
	}
	if v, ok := be.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("Get = (%q, %v)", v, ok)
	}
}

// TestBackendGetManyDelaysPerKey: a faulted GetMany of n keys is n
// delayed Gets — the same answers, the same Get count and the same
// number of sleeps as n Gets under the same plan, on a rate plan as on
// an every-Nth one — so a search that probes a request's stags in one
// GetMany keeps its storage delays.
func TestBackendGetManyDelaysPerKey(t *testing.T) {
	b := storage.Sorted{}.NewBuilder(2, 0)
	var keys [][]byte
	for i := 0; i < 40; i++ {
		k := []byte{byte(i), 'k'}
		if err := b.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k, []byte{byte(i), 'x'}) // a hit and a miss
	}
	be, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []BackendPlan{
		{Seed: 4, DelayEvery: 3, DelayMS: 1},
		{Seed: 5, DelayRate: 0.2, DelayMS: 1},
	} {
		each := WrapBackend(be, plan).(*backend)
		many := WrapBackend(be, plan).(*backend)
		vals := make([][]byte, len(keys))
		many.GetMany(keys, vals)
		for i, k := range keys {
			v, ok := each.Get(k)
			if ok != (vals[i] != nil) || !bytes.Equal(v, vals[i]) {
				t.Fatalf("%+v: key %d: GetMany = %q, Get = (%q, %v)", plan, i, vals[i], v, ok)
			}
		}
		if g, s := many.gets.Load(), many.slept.Load(); g != int64(len(keys)) || s != each.slept.Load() || s == 0 {
			t.Errorf("%+v: GetMany of %d keys made %d Gets and slept %d times; %d Gets slept %d times",
				plan, len(keys), g, s, len(keys), each.slept.Load())
		}
	}
}
