package core

import (
	"context"
	"strings"
	"testing"

	"rsse/internal/cover"
)

// searchFixture builds a small index of kind over a 5-bit domain, dense
// enough that every range below has matches and SRC-i reaches round 2.
func searchFixture(t *testing.T, kind Kind) (*Client, *Index) {
	t.Helper()
	opts := testOptions(61)
	opts.AllowIntersecting = true
	c, err := NewClient(kind, cover.Domain{Bits: 5}, opts)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.BuildIndex(uniformTuples(100, 5, 62))
	if err != nil {
		t.Fatal(err)
	}
	return c, idx
}

var (
	searchQuery = Range{Lo: 2, Hi: 25}
	searchBatch = []Range{{Lo: 2, Hi: 9}, {Lo: 12, Hi: 25}}
)

func allKinds() []Kind { return append([]Kind{Quadratic}, nonQuadraticKinds()...) }

// reshaped answers from x, but its responses to round's trapdoors lose
// their last group (drop) or gain an empty one. It embeds nothing, so
// no method of x's can route around its SearchContext.
type reshaped struct {
	x     *Index
	round int
	drop  bool
}

func (s reshaped) MetaContext(ctx context.Context) (IndexMeta, error) { return s.x.MetaContext(ctx) }

func (s reshaped) FetchMany(ctx context.Context, ids []ID) ([][]byte, error) {
	return s.x.FetchMany(ctx, ids)
}

func (s reshaped) SearchContext(ctx context.Context, t *Trapdoor) (*Response, error) {
	resp, err := s.x.SearchContext(ctx, t)
	if err != nil || t.Round() != s.round {
		return resp, err
	}
	if s.drop {
		resp.Ends = resp.Ends[:len(resp.Ends)-1]
	} else {
		resp.Ends = append(resp.Ends, resp.Items())
	}
	return resp, nil
}

// TestResponseShapeChecked: a response that is not one group per token
// — a group dropped or one added, in either SRC-i round — fails the
// query, through Query and QueryBatch alike, for every kind. A dropped
// group used to cost Query that group's matches silently.
func TestResponseShapeChecked(t *testing.T) {
	for _, kind := range allKinds() {
		rounds := []int{1}
		if kind == LogarithmicSRCi {
			rounds = append(rounds, 2)
		}
		t.Run(kind.String(), func(t *testing.T) {
			c, idx := searchFixture(t, kind)
			if _, err := c.QueryContext(context.Background(), reshaped{x: idx}, searchQuery); err != nil {
				t.Fatalf("untouched responses refused: %v", err)
			}
			for _, round := range rounds {
				for _, drop := range []bool{true, false} {
					s := reshaped{idx, round, drop}
					for path, run := range map[string]func() error{
						"Query":      func() error { _, err := c.QueryContext(context.Background(), s, searchQuery); return err },
						"QueryBatch": func() error { _, err := c.QueryBatchContext(context.Background(), s, searchBatch); return err },
					} {
						if err := run(); err == nil || !strings.Contains(err.Error(), "groups for") {
							t.Errorf("%s, round %d, drop %v: err %v, want the group-count refusal", path, round, drop, err)
						}
					}
				}
			}
		})
	}
}

// narrowed answers from x, but declares the items of its responses to
// round's trapdoors at half their width: the same bytes, twice the
// items.
type narrowed struct {
	x     *Index
	round int
}

func (s narrowed) MetaContext(ctx context.Context) (IndexMeta, error) { return s.x.MetaContext(ctx) }

func (s narrowed) FetchMany(ctx context.Context, ids []ID) ([][]byte, error) {
	return s.x.FetchMany(ctx, ids)
}

func (s narrowed) SearchContext(ctx context.Context, t *Trapdoor) (*Response, error) {
	resp, err := s.x.SearchContext(ctx, t)
	if err != nil || t.Round() != s.round {
		return resp, err
	}
	resp.Width /= 2
	for g := range resp.Ends {
		resp.Ends[g] *= 2
	}
	return resp, nil
}

// TestResponseWidthChecked: a response whose items are not the width
// its round reads — ids, or SRC-i's round-1 pairs — fails the query
// rather than being read at the wrong width, in every round of every
// kind.
func TestResponseWidthChecked(t *testing.T) {
	for _, kind := range allKinds() {
		rounds := []int{1}
		if kind == LogarithmicSRCi {
			rounds = append(rounds, 2)
		}
		t.Run(kind.String(), func(t *testing.T) {
			c, idx := searchFixture(t, kind)
			for _, round := range rounds {
				_, err := c.QueryBatchContext(context.Background(), narrowed{idx, round}, searchBatch)
				if err == nil || !strings.Contains(err.Error(), "-byte items") {
					t.Errorf("round %d: err %v, want the item-width refusal", round, err)
				}
			}
		})
	}
}

// searchCounter embeds *Index and overrides SearchContext alone.
type searchCounter struct {
	*Index
	searches int
}

func (s *searchCounter) SearchContext(ctx context.Context, t *Trapdoor) (*Response, error) {
	s.searches++
	return s.Index.SearchContext(ctx, t)
}

func roundsOf(res *Result, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return res.Stats.Rounds, nil
}

// TestEmbeddedSearchOverride: a source that embeds *Index and overrides
// SearchContext is searched through its override — once per round — by
// QueryContext and QueryBatch. *Index once carried a second search
// method, which embedding promoted past the override.
func TestEmbeddedSearchOverride(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			c, idx := searchFixture(t, kind)
			s := &searchCounter{Index: idx}
			for path, run := range map[string]func() (int, error){
				"Query": func() (int, error) { return roundsOf(c.QueryContext(context.Background(), s, searchQuery)) },
				"QueryContext": func() (int, error) {
					return roundsOf(c.QueryContext(context.Background(), s, searchQuery))
				},
				"QueryBatch": func() (int, error) {
					br, err := c.QueryBatchContext(context.Background(), s, searchBatch)
					if err != nil {
						return 0, err
					}
					return br.Stats.Rounds, nil
				},
			} {
				s.searches = 0
				rounds, err := run()
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if s.searches != rounds {
					t.Errorf("%s: the override ran %d times over %d rounds", path, s.searches, rounds)
				}
			}
		})
	}
}
