package core

import (
	"crypto/rand"
	"encoding/binary"
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

// rangeKeyword is the canonical keyword of subrange [lo, hi]: the two
// bounds, big-endian.
func rangeKeyword(lo, hi Value) string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], lo)
	binary.BigEndian.PutUint64(b[8:], hi)
	return string(b[:])
}

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

func (c *Client) buildQuadratic(x *Index, tuples []Tuple) error {
	if c.dom.Bits > c.quadMaxBits {
		return fmt.Errorf("%w: %d bits > limit %d", ErrDomainTooLarge, c.dom.Bits, c.quadMaxBits)
	}
	m := c.dom.Size()
	postings := newPostingLists[Range, ID]()
	actual := 0
	for _, t := range tuples {
		for lo := uint64(0); lo <= t.Value; lo++ {
			for hi := t.Value; hi < m; hi++ {
				kw := Range{Lo: lo, Hi: hi}
				postings.add(kw, t.ID)
				actual++
			}
		}
	}
	entries := make([]sse.Entry, len(postings.keys))
	h := prf.GetHasher(c.kSSE)
	for i, kw := range postings.keys {
		entries[i] = sse.EntryFromIDs(rangeStag(h, kw), postings.lists[i])
	}
	prf.PutHasher(h)

	if c.padQuadratic {
		// Pad the replicated dataset D' to its maximum possible size so
		// that the index size reveals only (n, m), never the value
		// distribution (Section 4). The dummies live under an
		// unsearchable random stag.
		maxTotal := uint64(len(tuples)) * maxQuadraticKeywords(m)
		if pad := maxTotal - uint64(actual); pad > 0 {
			var dummyStag sse.Stag
			if _, err := rand.Read(dummyStag[:]); err != nil {
				return fmt.Errorf("core: generating padding stag: %w", err)
			}
			payloads := make([][]byte, pad)
			for i := range payloads {
				p := make([]byte, 8)
				if _, err := rand.Read(p); err != nil {
					return fmt.Errorf("core: generating padding payload: %w", err)
				}
				payloads[i] = p
			}
			entries = append(entries, sse.Entry{Stag: dummyStag, Payloads: payloads})
		}
	}

	idx, err := c.sse.Build(entries, 8, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.primary = idx
	return nil
}
