package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"rsse/internal/core"
	"rsse/internal/cover"
	"rsse/internal/dataset"
)

func lazyTestIndex(t *testing.T) *core.Index {
	t.Helper()
	c, err := core.NewClient(core.LogarithmicBRC, cover.Domain{Bits: 6}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(dataset.Uniform(30, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestRegistryLazyOpenOnce(t *testing.T) {
	idx := lazyTestIndex(t)
	var opens atomic.Int32
	r := NewRegistry()
	if err := r.RegisterLazy("lazy", func() (core.Source, error) {
		opens.Add(1)
		return idx, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Names and Stats must not trigger the open.
	if got := r.Names(); len(got) != 1 || got[0] != "lazy" {
		t.Fatalf("Names = %v", got)
	}
	if st := r.Stats(); len(st) != 1 || st[0].Loaded || st[0].Err != nil {
		t.Fatalf("pre-open stats = %+v", st)
	}
	if opens.Load() != 0 {
		t.Fatal("listing opened the index")
	}

	// Concurrent lookups resolve to the same server with exactly one open.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, _, err := r.lookupServing("lazy")
			if err != nil || s != core.Source(idx) {
				t.Errorf("lookupServing = %v, %v", s, err)
			}
		}()
	}
	wg.Wait()
	if n := opens.Load(); n != 1 {
		t.Fatalf("opener ran %d times, want 1", n)
	}

	st := r.Stats()
	if len(st) != 1 || !st[0].Loaded || st[0].Stats.N != idx.N() {
		t.Fatalf("post-open stats = %+v", st)
	}
	if st[0].Stats.Engine == "" || st[0].Stats.IndexBytes <= 0 {
		t.Fatalf("stats missing engine/size: %+v", st[0].Stats)
	}
}

func TestRegistryLazyOpenErrorCached(t *testing.T) {
	boom := errors.New("bad file")
	var opens atomic.Int32
	r := NewRegistry()
	if err := r.RegisterLazy("broken", func() (core.Source, error) {
		opens.Add(1)
		return nil, boom
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := r.lookupServing("broken"); !errors.Is(err, ErrUnknownIndex) {
			t.Fatalf("lookupServing err = %v, want ErrUnknownIndex", err)
		}
	}
	if n := opens.Load(); n != 1 {
		t.Fatalf("failed opener ran %d times, want 1", n)
	}
	st := r.Stats()
	if len(st) != 1 || st[0].Loaded || st[0].Err == nil {
		t.Fatalf("stats = %+v", st)
	}
	// A broken name can be replaced.
	if !r.Deregister("broken") {
		t.Fatal("deregister failed")
	}
	if err := r.Register("broken", lazyTestIndex(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.lookupServing("broken"); err != nil {
		t.Fatal(err)
	}
}
