package core

import (
	"reflect"
	"testing"
	"time"
)

// TestStatsAdd is the one stats fold of a fanned-out query (cluster
// shards, sharded Dynamic shards, MultiClient attributes): counters and
// times sum, Rounds is the maximum, Groups and TokenLevels concatenate
// in the order the parts are added, and adding a zero value changes
// nothing.
func TestStatsAdd(t *testing.T) {
	a := QueryStats{Rounds: 1, Tokens: 3, TokenBytes: 96, ResponseItems: 3, Raw: 3,
		Matches: 2, FalsePositives: 1, Groups: []int{2, 1}, TokenLevels: []uint8{4, 5},
		ServerTime: 2 * time.Millisecond, OwnerTime: time.Millisecond}
	b := QueryStats{Rounds: 2, Tokens: 2, TokenBytes: 64, ResponseItems: 2, Raw: 1,
		Matches: 1, Groups: []int{1}, TokenLevels: []uint8{3},
		ServerTime: time.Millisecond, OwnerTime: 3 * time.Millisecond}
	queryCases := []struct {
		name  string
		parts []QueryStats
		want  QueryStats
	}{
		{"none", nil, QueryStats{}},
		{"one", []QueryStats{a}, a},
		{"two", []QueryStats{a, b}, QueryStats{Rounds: 2, Tokens: 5, TokenBytes: 160,
			ResponseItems: 5, Raw: 4, Matches: 3, FalsePositives: 1,
			Groups: []int{2, 1, 1}, TokenLevels: []uint8{4, 5, 3},
			ServerTime: 3 * time.Millisecond, OwnerTime: 4 * time.Millisecond}},
		{"reversed", []QueryStats{b, a}, QueryStats{Rounds: 2, Tokens: 5, TokenBytes: 160,
			ResponseItems: 5, Raw: 4, Matches: 3, FalsePositives: 1,
			Groups: []int{1, 2, 1}, TokenLevels: []uint8{3, 4, 5},
			ServerTime: 3 * time.Millisecond, OwnerTime: 4 * time.Millisecond}},
		{"zero is a no-op", []QueryStats{a, {}, {}}, a},
	}
	for _, tc := range queryCases {
		t.Run("QueryStats/"+tc.name, func(t *testing.T) {
			var got QueryStats
			for _, p := range tc.parts {
				got.Add(p)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fold = %+v, want %+v", got, tc.want)
			}
		})
	}

	x := BatchStats{Ranges: 3, Rounds: 2, CoverNodes: 9, UniqueTokens: 7, TokenBytes: 224,
		ResponseItems: 40, FetchedTuples: 5, ServerTime: time.Millisecond, OwnerTime: 2 * time.Millisecond}
	y := BatchStats{Ranges: 1, Rounds: 1, CoverNodes: 2, UniqueTokens: 2, TokenBytes: 64,
		ResponseItems: 6, ServerTime: 4 * time.Millisecond, OwnerTime: time.Millisecond}
	batchCases := []struct {
		name  string
		parts []BatchStats
		want  BatchStats
	}{
		{"none", nil, BatchStats{}},
		{"one", []BatchStats{y}, y},
		{"two", []BatchStats{y, x}, BatchStats{Ranges: 4, Rounds: 2, CoverNodes: 11,
			UniqueTokens: 9, TokenBytes: 288, ResponseItems: 46, FetchedTuples: 5,
			ServerTime: 5 * time.Millisecond, OwnerTime: 3 * time.Millisecond}},
		{"zero is a no-op", []BatchStats{{}, x, {}}, x},
	}
	for _, tc := range batchCases {
		t.Run("BatchStats/"+tc.name, func(t *testing.T) {
			var got BatchStats
			for _, p := range tc.parts {
				got.Add(p)
			}
			if got != tc.want {
				t.Fatalf("fold = %+v, want %+v", got, tc.want)
			}
		})
	}
}
