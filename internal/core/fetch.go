package core

import (
	"context"
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"

	"rsse/internal/secenc"
)

// The owner-side fetch round. Search returns ids; whatever the owner does
// next — weed out the SRC schemes' false positives, hand documents to the
// application, download an epoch for consolidation — starts by fetching
// the ciphertexts of those ids. Every such loop runs through FetchEach,
// which asks the server for a whole chunk of ids per exchange instead of
// one id per round trip.
//
// Leakage note: the server learns nothing new. It sees the same ids it
// would have seen one Fetch at a time, in the order it returned them, and
// they were already linkable to the query by connection and timing.

// FetchChunk is the number of ids one FetchMany exchange carries. A
// constant, not a knob: big enough that a typical false-positive set
// crosses in one or two frames, small enough that the owner starts
// decrypting long before a large result set has finished arriving.
const FetchChunk = 128

// FetchEach hands fn the ciphertext of every id, in order (nil for an id
// the source does not hold). The ids cross in FetchChunk-sized exchanges
// with at most two chunks in flight: while fn works through chunk k,
// chunk k+1 is on the wire. fn runs on the caller's goroutine, one call
// at a time.
func FetchEach(ctx context.Context, s Source, ids []ID, fn func(i int, ct []byte) error) error {
	if len(ids) == 0 {
		return nil
	}
	// deliver hands fn the chunk of ciphertexts that starts at ids[base].
	deliver := func(base int, cts [][]byte) error {
		if want := min(FetchChunk, len(ids)-base); len(cts) != want {
			return fmt.Errorf("core: server returned %d ciphertexts for %d ids", len(cts), want)
		}
		for j, ct := range cts {
			if err := fn(base+j, ct); err != nil {
				return err
			}
		}
		return nil
	}
	if len(ids) <= FetchChunk {
		cts, err := s.FetchMany(ctx, ids)
		if err != nil {
			return err
		}
		return deliver(0, cts)
	}

	type chunk struct {
		cts [][]byte
		err error
	}
	ctx, cancel := context.WithCancel(ctx)
	// Unbuffered: the fetcher holds chunk k+1 until fn is done with chunk k.
	ch := make(chan chunk)
	go func() {
		defer close(ch)
		for lo := 0; lo < len(ids); lo += FetchChunk {
			cts, err := s.FetchMany(ctx, ids[lo:min(lo+FetchChunk, len(ids))])
			select {
			case ch <- chunk{cts, err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()
	// Stop the fetcher and wait for it on every path out.
	defer func() {
		cancel()
		for range ch {
		}
	}()
	base := 0
	for c := range ch {
		if c.err != nil {
			return c.err
		}
		if err := deliver(base, c.cts); err != nil {
			return err
		}
		base += len(c.cts)
	}
	if base != len(ids) {
		return ctx.Err() // the fetcher only stops short when ctx is done
	}
	return nil
}

var errCorruptTuple = errors.New("core: corrupt tuple ciphertext")

// fetchValues fetches ids and decrypts just each tuple's value — all the
// false-positive filter needs: one AES block per id under the cached key
// schedule, no allocation, however long the payloads are.
func (c *Client) fetchValues(ctx context.Context, s Source, ids []ID) ([]Value, error) {
	values := make([]Value, len(ids))
	var head [aes.BlockSize]byte
	err := FetchEach(ctx, s, ids, func(i int, ct []byte) error {
		if ct == nil {
			return fmt.Errorf("core: server returned unknown id %d", ids[i])
		}
		n, err := secenc.DecryptCBCFirstBlock(c.storeBlock, &head, ct)
		if err != nil {
			return err
		}
		if n < 8 {
			return errCorruptTuple
		}
		values[i] = binary.BigEndian.Uint64(head[:8])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return values, nil
}

// FetchTuples retrieves and decrypts the tuples stored under ids, in
// order. Against a *RemoteIndex the ids travel in one chunked fetch
// round (one frame per 128 ids), not one round trip each; an id the
// source does not hold fails the call.
func (c *Client) FetchTuples(ctx context.Context, s Source, ids []ID) ([]Tuple, error) {
	out := make([]Tuple, len(ids))
	err := FetchEach(ctx, s, ids, func(i int, ct []byte) error {
		if ct == nil {
			return fmt.Errorf("core: no tuple with id %d", ids[i])
		}
		var err error
		out[i], err = c.OpenTuple(ids[i], ct)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FetchTuple retrieves and decrypts one tuple by id from a Server.
//
// Deprecated: call FetchTuples with a Source.
func (c *Client) FetchTuple(s Server, id ID) (Tuple, error) {
	tuples, err := c.FetchTuples(context.Background(), FromServer(s), []ID{id})
	if err != nil {
		return Tuple{}, err
	}
	return tuples[0], nil
}

// OpenTuple decrypts a ciphertext the caller already fetched for id.
func (c *Client) OpenTuple(id ID, ct []byte) (Tuple, error) {
	plain, err := secenc.DecryptCBCBlock(c.storeBlock, ct)
	if err != nil {
		return Tuple{}, err
	}
	if len(plain) < 8 {
		return Tuple{}, errCorruptTuple
	}
	return Tuple{ID: id, Value: binary.BigEndian.Uint64(plain[:8]), Payload: plain[8:]}, nil
}
