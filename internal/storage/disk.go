package storage

// Disk is the disk-backed engine: Seal lays the records out in the
// sealed-segment format (segment.go) and serves them by binary search
// over the encoded bytes — the exact representation a segment file has
// on disk. Building through this engine therefore costs one extra
// encoding pass over Sorted, but the payoff is on the load path: an
// index persisted as a segment reopens with Open
// in O(checksum) time with zero per-record work, instead of the O(n)
// record-by-record rebuild every other engine needs.
//
// Get performance matches the Sorted engine within noise: the same radix
// directory plus short binary search, with two big-endian offset decodes
// as the only extra per-probe work.
type Disk struct{}

// Name implements Engine.
func (Disk) Name() string { return "disk" }

// NewBuilder implements Engine. The builder accumulates records exactly
// like the Sorted engine's (same duplicate detection, same
// skip-the-sort fast path for ascending input), then encodes the sealed
// arrays as a segment.
func (Disk) NewBuilder(keyLen, capacityHint int) Builder {
	return &diskBuilder{inner: Sorted{}.NewBuilder(keyLen, capacityHint).(*sortedBuilder)}
}

// Open implements Opener: the returned Backend answers queries in place
// over the serialized segment.
func (Disk) Open(segment []byte) (Backend, error) { return OpenSegment(segment) }

type diskBuilder struct {
	inner *sortedBuilder
}

func (b *diskBuilder) Put(key, value []byte) error { return b.inner.Put(key, value) }

func (b *diskBuilder) Seal() (Backend, error) {
	buf, err := b.encode()
	if err != nil {
		return nil, err
	}
	return openOwnedSegment(buf)
}

// openOwnedSegment opens a freshly encoded buffer the backend will own,
// so Resident accounts for it.
func openOwnedSegment(buf []byte) (Backend, error) {
	x, err := OpenSegment(buf)
	if err != nil {
		return nil, err
	}
	x.(*segmentBackend).heap = len(buf)
	return x, nil
}

func (b *diskBuilder) encode() ([]byte, error) {
	x, err := b.inner.Seal()
	if err != nil {
		return nil, err
	}
	return EncodeSegment(x)
}
