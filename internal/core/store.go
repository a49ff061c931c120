package core

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"rsse/internal/secenc"
	"rsse/internal/storage"
)

// TupleStore is the server-side collection of encrypted tuples, stored
// separately from the index as the paper prescribes (Section 3): search
// returns ids; the owner then fetches the ciphertexts of those ids and
// decrypts them in a final step. The store is also what lets the owner
// weed out false positives of the SRC schemes and, in the update protocol
// of Section 7, download and re-encrypt whole batches.
//
// Each ciphertext is AES-128-CBC(value || payload) under an owner key with
// a fresh IV, i.e. semantically secure: the server learns only ids and
// ciphertext lengths. Physically the id→ciphertext records live behind a
// storage.Backend, chosen by the same engine that lays out the SSE
// dictionaries.
type TupleStore struct {
	cts  storage.Backend
	size int
}

// storeKeyLen is the byte length of a tuple-store key (a big-endian id).
const storeKeyLen = 8

// buildStore encrypts every tuple under block onto the given storage
// engine: IVs from one read, ciphertexts into one buffer, which Put copies.
func buildStore(block cipher.Block, tuples []Tuple, eng storage.Engine) (*TupleStore, error) {
	ivs := make([]byte, aes.BlockSize*len(tuples))
	if _, err := rand.Read(ivs); err != nil {
		return nil, fmt.Errorf("core: generating tuple IVs: %w", err)
	}
	r := bytes.NewReader(ivs)
	b := storage.OrDefault(eng).NewBuilder(storeKeyLen, len(tuples))
	s := &TupleStore{}
	var plain, ct []byte
	var key [storeKeyLen]byte // one buffer: Put is an interface call, so it escapes
	for _, t := range tuples {
		plain = append(binary.BigEndian.AppendUint64(plain[:0], t.Value), t.Payload...)
		var err error
		if ct, err = secenc.AppendCBC(ct[:0], block, plain, r); err != nil {
			return nil, err
		}
		binary.BigEndian.PutUint64(key[:], t.ID)
		if err := b.Put(key[:], ct); err != nil {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateID, t.ID)
		}
		s.size += 8 + len(ct)
	}
	cts, err := b.Seal()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDuplicateID, err)
	}
	s.cts = cts
	return s, nil
}

// getMany fills out[i] with the ciphertext stored for ids[i], leaving it
// nil for an unknown id. One key buffer serves the whole loop: Backend.Get
// is an interface call, so a per-id buffer would cost an allocation each.
func (s *TupleStore) getMany(ids []ID, out [][]byte) {
	var k [storeKeyLen]byte
	for i, id := range ids {
		binary.BigEndian.PutUint64(k[:], id)
		if ct, ok := s.cts.Get(k[:]); ok {
			out[i] = ct
		}
	}
}

// Len returns the number of stored tuples.
func (s *TupleStore) Len() int { return s.cts.Len() }

// Size returns the server storage footprint of the ciphertext collection.
func (s *TupleStore) Size() int { return s.size }

// IDs lists the stored ids in ascending order. IDs are public; the update
// manager uses this to download a batch for consolidation.
func (s *TupleStore) IDs() []ID {
	out := make([]ID, 0, s.cts.Len())
	s.cts.Iterate(func(key, _ []byte) bool {
		out = append(out, binary.BigEndian.Uint64(key))
		return true
	})
	return out
}
