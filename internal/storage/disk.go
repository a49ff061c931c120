package storage

// Disk is the disk-backed engine. It builds exactly as the Sorted engine
// does — both seal records into a segment (segment.go) and serve it with
// one Backend and one Get — and differs only by implementing Opener: an
// index persisted as a segment reopens in O(checksum) time with zero
// per-record work, served in place over the file's (typically
// memory-mapped) bytes, instead of the O(n) record-by-record rebuild
// every other engine needs.
type Disk struct{}

// Name implements Engine.
func (Disk) Name() string { return "disk" }

// NewBuilder implements Engine with the Sorted engine's builder.
func (Disk) NewBuilder(keyLen, capacityHint int) Builder {
	return newSortedBuilder(keyLen, capacityHint)
}

// Open implements Opener: the returned Backend answers queries in place
// over the serialized segment.
func (Disk) Open(segment []byte) (Backend, error) { return OpenSegment(segment) }
