package core

import (
	"crypto/rand"
	"fmt"

	"rsse/internal/prf"
	"rsse/internal/sse"
)

// The Quadratic scheme (Section 4) enumerates every possible subrange of
// the domain, assigns each a keyword, and associates every tuple with the
// keywords of all O(m^2) subranges containing its value. A query is then a
// single keyword — maximal security (with padding, only n and m leak) at a
// prohibitive O(n m^2) storage cost. It exists as the framework's
// didactic baseline and is guarded against large domains.

// maxQuadraticKeywords is the largest number of subranges any single value
// belongs to: max over a of (a+1)(m-a), attained at the domain middle.
func maxQuadraticKeywords(m uint64) uint64 {
	if m == 1 {
		return 1
	}
	a := m/2 - 1
	best := (a + 1) * (m - a)
	if v := (m/2 + 1) * (m - m/2); v > best {
		best = v
	}
	return best
}

func (c *Client) buildQuadratic(x *Index, p plan) error {
	if c.dom.Bits > c.quadMaxBits {
		return fmt.Errorf("%w: %d bits > limit %d", ErrDomainTooLarge, c.dom.Bits, c.quadMaxBits)
	}
	// Range [lo, hi] holds the run of tuples vals[i:j] with lo <= value
	// <= hi; a range that holds none is no keyword.
	m, vals := c.dom.Size(), p.vals
	var entries []sse.Entry
	h := prf.GetHasher(c.kSSE)
	actual := 0
	for lo, i := uint64(0), 0; lo < m; lo++ {
		for i < len(vals) && vals[i] < lo {
			i++
		}
		if i == len(vals) {
			break
		}
		for hi, j := vals[i], i; hi < m; hi++ {
			for j < len(vals) && vals[j] <= hi {
				j++
			}
			entries = append(entries, sse.Entry{Stag: rangeStag(h, Range{Lo: lo, Hi: hi}), Data: p.ids[8*i : 8*j]})
			actual += j - i
		}
	}
	prf.PutHasher(h)

	if c.padQuadratic {
		// Pad the replicated dataset D' to its maximum possible size so
		// that the index size reveals only (n, m), never the value
		// distribution (Section 4). The dummies live under an
		// unsearchable random stag, drawn with them in one read.
		maxTotal := uint64(len(vals)) * maxQuadraticKeywords(m)
		if pad := maxTotal - uint64(actual); pad > 0 {
			dummy := make([]byte, sse.StagSize+8*pad)
			if _, err := rand.Read(dummy); err != nil {
				return fmt.Errorf("core: generating padding: %w", err)
			}
			entries = append(entries, sse.Entry{Stag: sse.Stag(dummy[:sse.StagSize]), Data: dummy[sse.StagSize:]})
		}
	}

	idx, err := c.sse.Build(entries, 8, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.primary = idx
	return nil
}
