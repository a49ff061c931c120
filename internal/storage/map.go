package storage

import (
	"slices"
	"strings"
)

// Map is the hash-table engine: one Go map per key space, exactly the
// representation the SSE dictionaries and the tuple store used before the
// storage seam existed. O(1) point lookups, no ordering; Iterate sorts on
// demand (serialization is the only order-sensitive consumer).
type Map struct{}

// Name implements Engine.
func (Map) Name() string { return "map" }

// NewBuilder implements Engine.
func (Map) NewBuilder(keyLen, capacityHint int) Builder {
	if capacityHint < 0 {
		capacityHint = 0
	}
	return &mapBuilder{keyLen: keyLen, m: make(map[string][]byte, capacityHint)}
}

type mapBuilder struct {
	keyLen int
	m      map[string][]byte
	arena  []byte // free tail of the chunk values are copied into
	err    error  // a duplicate Put: it replaced the first value, so Seal fails too
	sealed bool
}

// mapArenaChunk is the size of the chunks a map builder copies values
// into: one allocation per chunk instead of one per record.
const mapArenaChunk = 64 << 10

func (b *mapBuilder) Put(key, value []byte) error {
	if b.sealed {
		return ErrSealed
	}
	if b.err != nil {
		return b.err
	}
	if len(key) != b.keyLen {
		return ErrKeyLen
	}
	if len(b.arena) < len(value) {
		b.arena = make([]byte, max(len(value), mapArenaChunk))
	}
	v := b.arena[:len(value):len(value)]
	copy(v, value)
	b.arena = b.arena[len(value):]
	// One map operation: a duplicate is the insert that leaves the size
	// unchanged.
	n := len(b.m)
	b.m[string(key)] = v
	if len(b.m) == n {
		b.err = ErrDuplicateKey
		return b.err
	}
	return nil
}

func (b *mapBuilder) Seal() (Backend, error) {
	if b.sealed {
		return nil, ErrSealed
	}
	b.sealed = true
	if b.err != nil {
		return nil, b.err
	}
	x := &mapBackend{keyLen: b.keyLen, m: b.m}
	for k, v := range b.m {
		x.resident += len(k) + len(v) + 48
	}
	return x, nil
}

type mapBackend struct {
	keyLen   int
	m        map[string][]byte
	resident int
}

func (x *mapBackend) Get(key []byte) ([]byte, bool) {
	if len(key) != x.keyLen {
		return nil, false
	}
	v, ok := x.m[string(key)] // no allocation: map lookup special case
	return v, ok
}

func (x *mapBackend) GetMany(keys, vals [][]byte) { GetEach(x, keys, vals) }

func (x *mapBackend) Len() int    { return len(x.m) }
func (x *mapBackend) KeyLen() int { return x.keyLen }

// Resident reports the heap footprint estimated once at Seal: key and
// value bytes plus Go's per-entry map overhead (header, hash cell,
// string header — ~48 bytes).
func (x *mapBackend) Resident() int { return x.resident }

func (x *mapBackend) Iterate(fn func(key, value []byte) bool) {
	type record struct {
		key   string
		value []byte
	}
	recs := make([]record, 0, len(x.m))
	for k, v := range x.m {
		recs = append(recs, record{k, v})
	}
	slices.SortFunc(recs, func(a, b record) int { return strings.Compare(a.key, b.key) })
	key := make([]byte, x.keyLen)
	for _, r := range recs {
		if !fn(key[:copy(key, r.key)], r.value) {
			return
		}
	}
}
