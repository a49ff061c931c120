package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"rsse/internal/cover"
	"rsse/internal/secenc"
	"rsse/internal/sse"
)

// Logarithmic-SRC-i (Section 6.3) caps Logarithmic-SRC's false positives
// at O(R + r) with a double index and one extra round:
//
//   - I1 ("aux" here) is built over TDAG1 on the *domain*. Its documents
//     are (value, position-range) pairs, one per distinct value in the
//     dataset, where positions index the tuples sorted by value (ties
//     shuffled). Pair payloads are encrypted under an owner-only key, so
//     the server learns just how many distinct values a window holds.
//   - I2 ("primary" here) is built over TDAG2 on the *positions* 0..n-1;
//     its documents are the tuples themselves.
//
// A query first fetches the pairs of the SRC window on TDAG1, merges the
// qualifying position ranges into one contiguous range (values are
// sorted, so ranges of in-query values are adjacent), then fetches the
// SRC window of that position range on TDAG2. Each window overshoots by
// at most 4x (Lemma 1), giving the O(R + r) false positive bound of
// Table 1 regardless of skew.

// pairWidth is the fixed width of an encrypted I1 pair document:
// 16-byte nonce + AES-CTR over (value, posLo, posHi).
const pairWidth = 16 + 24

// valuePair is one I1 document in the clear.
type valuePair struct {
	value Value
	posLo uint64
	posHi uint64
}

// pairCipher seals and opens pairs under the owner's pair key schedule.
// ctr and ks are the CTR walk's scratch: the block's interface call makes
// them escape, so one pairCipher serves a whole build or merge.
type pairCipher struct {
	block   cipher.Block
	ctr, ks [aes.BlockSize]byte
}

// seal encrypts a pair with a fresh nonce. Every replica of the same
// pair gets its own nonce, so identical pairs stored under different
// TDAG1 keywords are unlinkable.
func (pc *pairCipher) seal(p valuePair) ([]byte, error) {
	out := make([]byte, pairWidth)
	if _, err := io.ReadFull(rand.Reader, out[:16]); err != nil {
		return nil, fmt.Errorf("core: generating pair nonce: %w", err)
	}
	var plain [24]byte
	binary.BigEndian.PutUint64(plain[0:], p.value)
	binary.BigEndian.PutUint64(plain[8:], p.posLo)
	binary.BigEndian.PutUint64(plain[16:], p.posHi)
	copy(pc.ctr[:], out[:16])
	secenc.XORKeyStreamBlock(pc.block, &pc.ctr, &pc.ks, out[16:], plain[:])
	return out, nil
}

// open decrypts a sealed pair.
func (pc *pairCipher) open(blob []byte) (valuePair, error) {
	if len(blob) != pairWidth {
		return valuePair{}, fmt.Errorf("core: pair blob has %d bytes, want %d", len(blob), pairWidth)
	}
	var plain [24]byte
	copy(pc.ctr[:], blob[:16])
	secenc.XORKeyStreamBlock(pc.block, &pc.ctr, &pc.ks, plain[:], blob[16:])
	return valuePair{
		value: binary.BigEndian.Uint64(plain[0:8]),
		posLo: binary.BigEndian.Uint64(plain[8:16]),
		posHi: binary.BigEndian.Uint64(plain[16:24]),
	}, nil
}

func (c *Client) buildLogSRCi(x *Index, tuples []Tuple) error {
	// Sort tuples by value with randomly shuffled ties (the paper shuffles
	// same-keyword documents before building TDAG2).
	sorted := make([]Tuple, len(tuples))
	copy(sorted, tuples)
	c.rnd.Shuffle(len(sorted), func(i, j int) { sorted[i], sorted[j] = sorted[j], sorted[i] })
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Value < sorted[j].Value })

	// Distinct values → contiguous position ranges.
	var pairs []valuePair
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Value == sorted[i].Value {
			j++
		}
		pairs = append(pairs, valuePair{value: sorted[i].Value, posLo: uint64(i), posHi: uint64(j - 1)})
		i = j
	}

	// I1: TDAG1 over the domain indexes the encrypted pairs.
	tdag1 := cover.NewTDAG(c.dom)
	auxPostings := newPostingLists[cover.Node, []byte]()
	pc := &pairCipher{block: c.pairBlock}
	for _, p := range pairs {
		for _, node := range tdag1.Cover(p.value) {
			blob, err := pc.seal(p)
			if err != nil {
				return err
			}
			auxPostings.add(node, blob)
		}
	}
	auxEntries := make([]sse.Entry, len(auxPostings.keys))
	s := newStagger(c.suite, c.kSSE)
	for i, node := range auxPostings.keys {
		auxEntries[i] = sse.Entry{Stag: s.node(node), Payloads: auxPostings.lists[i]}
	}
	s.release()
	aux, err := c.sse.Build(auxEntries, pairWidth, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.aux = aux

	// I2: TDAG2 over positions 0..n-1 indexes the tuples.
	if len(sorted) > 0 {
		x.posBits = cover.FitDomain(uint64(len(sorted) - 1)).Bits
	}
	tdag2 := cover.NewTDAG(cover.Domain{Bits: x.posBits})
	primPostings := newPostingLists[cover.Node, ID]()
	for pos, t := range sorted {
		for _, node := range tdag2.Cover(uint64(pos)) {
			primPostings.add(node, t.ID)
		}
	}
	primary, err := c.sse.Build(c.entriesFromPostings(primPostings, c.kSSE2), 8, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.primary = primary
	return nil
}

// mergePairs decrypts range i's round-1 pair blobs, keeps those whose
// value satisfies q, and merges their position ranges into the single
// contiguous range for round 2. any is false when no value qualifies.
func (c *Client) mergePairs(plan *tokenPlan, resp *Response, i int, q Range) (posRange Range, any bool, err error) {
	pc := &pairCipher{block: c.pairBlock}
	for j := 0; j < plan.tokens(i); j++ {
		lo, hi := resp.group(plan.slot(i, j))
		for k := lo; k < hi; k++ {
			p, err := pc.open(resp.Data[k*pairWidth : (k+1)*pairWidth])
			if err != nil {
				return Range{}, false, err
			}
			if !q.Contains(p.value) {
				continue
			}
			if !any {
				posRange = Range{Lo: p.posLo, Hi: p.posHi}
				any = true
				continue
			}
			if p.posLo < posRange.Lo {
				posRange.Lo = p.posLo
			}
			if p.posHi > posRange.Hi {
				posRange.Hi = p.posHi
			}
		}
	}
	return posRange, any, nil
}
