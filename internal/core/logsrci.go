package core

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"

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

// seal encrypts a pair into blob, whose first 16 bytes hold its fresh
// nonce. Every replica of a pair gets its own nonce, so identical pairs
// stored under different TDAG1 keywords are unlinkable.
func (pc *pairCipher) seal(blob []byte, p valuePair) {
	var plain [24]byte
	binary.BigEndian.PutUint64(plain[0:], p.value)
	binary.BigEndian.PutUint64(plain[8:], p.posLo)
	binary.BigEndian.PutUint64(plain[16:], p.posHi)
	copy(pc.ctr[:], blob[:16])
	secenc.XORKeyStreamBlock(pc.block, &pc.ctr, &pc.ks, blob[16:pairWidth], plain[:])
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

func (c *Client) buildLogSRCi(x *Index, p plan) error {
	// The plan sorted the tuples by value with shuffled ties: a tuple's
	// position is its index in it. Each distinct value is one pair, its
	// positions a run.
	values := cover.LeafRuns(p.vals)
	pairs := make([]valuePair, len(values))
	keys := make([]uint64, len(values))
	for i, r := range values {
		pairs[i] = valuePair{value: r.Node.Start, posLo: uint64(r.Lo), posHi: uint64(r.Hi - 1)}
		keys[i] = r.Node.Start
	}

	// I1: TDAG1 over the domain indexes the encrypted pairs, each node a
	// run of replicas sealed under their own nonces. One read fills every
	// replica: its first 16 bytes are its nonce; sealing writes the rest.
	runs := cover.NewTDAG(c.dom).Runs(keys)
	replicas := 0
	for _, r := range runs {
		replicas += r.Hi - r.Lo
	}
	blobs := make([]byte, replicas*pairWidth)
	if _, err := rand.Read(blobs); err != nil {
		return fmt.Errorf("core: generating pair nonces: %w", err)
	}
	pc := &pairCipher{block: c.pairBlock}
	auxEntries := make([]sse.Entry, len(runs))
	s := newStagger(c.suite, c.kSSE)
	for i, r := range runs {
		data := blobs[:(r.Hi-r.Lo)*pairWidth]
		blobs = blobs[len(data):]
		for k := r.Lo; k < r.Hi; k++ {
			pc.seal(data[(k-r.Lo)*pairWidth:], pairs[k])
		}
		auxEntries[i] = sse.Entry{Stag: s.node(r.Node), Data: data}
	}
	s.release()
	aux, err := c.sse.Build(auxEntries, pairWidth, c.rnd, c.storage, c.suite)
	if err != nil {
		return err
	}
	x.aux = aux

	// I2: TDAG2 over positions 0..n-1 indexes the tuples.
	if len(p.vals) > 0 {
		x.posBits = cover.FitDomain(uint64(len(p.vals) - 1)).Bits
	}
	positions := make([]uint64, len(p.vals))
	for i := range positions {
		positions[i] = uint64(i)
	}
	entries := c.idEntries(cover.NewTDAG(cover.Domain{Bits: x.posBits}).Runs(positions), p.ids, c.kSSE2)
	primary, err := c.sse.Build(entries, 8, c.rnd, c.storage, c.suite)
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
