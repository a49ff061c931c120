package shard

import "rsse/internal/core"

// MergeInto folds one shard's sub-result into an accumulating result,
// exactly as if a single index had answered the whole range. Shards
// partition the value domain, so match sets are disjoint and
// concatenation (in ascending shard order) is the correct union.
//
// Stats aggregate as: token/response/match counters sum; Rounds is the
// maximum over shards (rounds overlap in time); Groups and TokenLevels
// concatenate (the structural leakage of the whole scatter); ServerTime
// and OwnerTime sum, giving total work rather than wall clock — the
// executor overlaps shards, so wall clock is roughly the slowest shard.
// A failed or cancelled shard has no sub-result to fold; callers choosing
// the Partial policy surface it separately.
func MergeInto(dst, r *core.Result) {
	dst.Matches = append(dst.Matches, r.Matches...)
	dst.Raw = append(dst.Raw, r.Raw...)
	s, t := &dst.Stats, r.Stats
	if t.Rounds > s.Rounds {
		s.Rounds = t.Rounds
	}
	s.Tokens += t.Tokens
	s.TokenBytes += t.TokenBytes
	s.ResponseItems += t.ResponseItems
	s.Raw += t.Raw
	s.Matches += t.Matches
	s.FalsePositives += t.FalsePositives
	s.Groups = append(s.Groups, t.Groups...)
	s.TokenLevels = append(s.TokenLevels, t.TokenLevels...)
	s.ServerTime += t.ServerTime
	s.OwnerTime += t.OwnerTime
}
