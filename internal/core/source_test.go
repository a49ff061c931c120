package core

import (
	"context"
	"errors"
	"testing"
)

// callCounter is a Server that counts the calls reaching it.
type callCounter struct{ meta, search, fetch int }

func (c *callCounter) Meta() (IndexMeta, error)            { c.meta++; return IndexMeta{}, nil }
func (c *callCounter) Search(*Trapdoor) (*Response, error) { c.search++; return &Response{}, nil }

func (c *callCounter) Fetch(id ID) ([]byte, bool, error) {
	c.fetch++
	if id == 0 {
		return nil, false, nil
	}
	return []byte{byte(id)}, true, nil
}

// TestFromServerChecksContextFirst: the legacy adapter returns ctx.Err()
// from each call without reaching the Server, and with a live ctx its
// FetchMany is one Fetch per id, an unknown id a nil entry.
func TestFromServerChecksContextFirst(t *testing.T) {
	s := &callCounter{}
	src := FromServer(s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := src.MetaContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("MetaContext: err %v, want context.Canceled", err)
	}
	if _, err := src.SearchContext(ctx, &Trapdoor{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SearchContext: err %v, want context.Canceled", err)
	}
	if _, err := src.FetchMany(ctx, []ID{1, 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("FetchMany: err %v, want context.Canceled", err)
	}
	if *s != (callCounter{}) {
		t.Fatalf("a cancelled ctx reached the Server: %+v", *s)
	}

	cts, err := src.FetchMany(context.Background(), []ID{3, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cts) != 3 || cts[0][0] != 3 || cts[1] != nil || cts[2][0] != 5 || s.fetch != 3 {
		t.Fatalf("FetchMany = %v after %d Fetch calls, want [[3] [] [5]] after 3", cts, s.fetch)
	}
}
